"""Allgather: recursive doubling (short, power-of-two) or ring (long).

MPICH2's classic selection: recursive doubling finishes in log p steps
but sends doubling payloads; the ring pipelines p-1 fixed-size block
transfers, which wins for long vectors (and is the only option on
non-power-of-two communicators here).
"""

from __future__ import annotations

from repro.kernel.copy import cpu_copy
from repro.mpi.coll.alltoall import _blocks
from repro.mpi.datatypes import as_views
from repro.mpi.request import Request

__all__ = ["allgather", "allgather_ring", "allgather_recursive_doubling"]

_ALLGATHER_TAG = -6000


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def allgather(comm, sendbuf, recvbuf):
    """Algorithm-selecting allgather (generator)."""
    send_views = as_views(sendbuf)
    block = sum(v.nbytes for v in send_views)
    tuning = comm.world.coll_tuning
    if _is_pow2(comm.size) and block < tuning.allgather_ring_min:
        return allgather_recursive_doubling(comm, sendbuf, recvbuf)
    return allgather_ring(comm, sendbuf, recvbuf)


def allgather_ring(comm, sendbuf, recvbuf):
    """Ring: p-1 steps; at step k forward the block received at step
    k-1 to the right neighbour.  Generator."""
    p = comm.size
    rank = comm.rank
    send_views = as_views(sendbuf)
    blocks, block = _blocks(recvbuf, p)

    # Own contribution in place.
    yield from cpu_copy(comm.machine, comm.core, blocks[rank], send_views)
    if p == 1:
        return

    right = (rank + 1) % p
    left = (rank - 1) % p
    with comm.world.collective_hint(2):
        for step in range(p - 1):
            send_block = (rank - step) % p
            recv_block = (rank - step - 1) % p
            rreq = comm.Irecv(blocks[recv_block], source=left, tag=_ALLGATHER_TAG + step)
            sreq = comm.Isend(blocks[send_block], dest=right, tag=_ALLGATHER_TAG + step)
            yield from Request.waitall([sreq, rreq])


def allgather_recursive_doubling(comm, sendbuf, recvbuf):
    """Recursive doubling (power-of-two ranks): at step k exchange the
    2^k blocks accumulated so far with the partner rank XOR 2^k.
    Generator."""
    p = comm.size
    rank = comm.rank
    if not _is_pow2(p):
        yield from allgather_ring(comm, sendbuf, recvbuf)
        return
    send_views = as_views(sendbuf)
    blocks, block = _blocks(recvbuf, p)

    yield from cpu_copy(comm.machine, comm.core, blocks[rank], send_views)
    if p == 1:
        return

    def span_views(lo: int, count: int):
        out = []
        for b in blocks[lo : lo + count]:
            out.extend(b)
        return out

    own_lo = rank
    own_count = 1
    mask = 1
    step = 0
    while mask < p:
        peer = rank ^ mask
        peer_lo = own_lo ^ mask  # the aligned sibling span
        sreq = comm.Isend(
            span_views(own_lo, own_count), dest=peer, tag=_ALLGATHER_TAG - 100 - step
        )
        rreq = comm.Irecv(
            span_views(peer_lo, own_count), source=peer, tag=_ALLGATHER_TAG - 100 - step
        )
        yield from Request.waitall([sreq, rreq])
        own_lo = min(own_lo, peer_lo)
        own_count *= 2
        mask <<= 1
        step += 1
