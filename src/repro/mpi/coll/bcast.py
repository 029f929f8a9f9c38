"""Broadcast: a binomial tree.

Each step carries the full payload down the tree (log p steps).  The
broadcasts here are allreduce's fallback on non-power-of-two or
irregular communicators and the node-local stage of the leader-based
hierarchy, where p is small.
"""

from __future__ import annotations

from repro.mpi.datatypes import as_views

__all__ = ["bcast"]

_BCAST_TAG = -2000


def bcast(comm, buf, root: int = 0):
    """Binomial broadcast of ``buf`` from ``root``.  Generator."""
    p = comm.size
    views = as_views(buf)
    if p == 1:
        return
        yield  # pragma: no cover

    rank = comm.rank
    vrank = (rank - root) % p

    # Receive phase: find my parent (clear my lowest set bit).
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (vrank - mask + root) % p
            yield comm.Recv(views, source=parent, tag=_BCAST_TAG)
            break
        mask <<= 1

    # Send phase: forward to children below my lowest set bit.
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            child = (vrank + mask + root) % p
            yield comm.Send(views, dest=child, tag=_BCAST_TAG)
        mask >>= 1
