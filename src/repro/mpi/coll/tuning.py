"""Collective algorithm selection thresholds (MPICH2-style).

MPICH2 picks a different algorithm per collective based on message
size and communicator shape; the defaults here mirror its classic
cut-offs.  A :class:`CollTuning` lives on the world and can be
overridden per run — the Sec. 6 idea of tuning collectives to the
intranode transfer layer is exercised by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import KiB

__all__ = ["CollTuning"]


@dataclass(frozen=True)
class CollTuning:
    """Size thresholds (bytes) steering collective algorithm choice."""

    #: Allreduce: recursive doubling below, Rabenseifner
    #: (reduce-scatter + allgather) at/above (power-of-two sizes only).
    allreduce_rabenseifner_min: int = 2 * KiB
    #: Allgather: recursive doubling (power-of-two ranks) below,
    #: ring at/above (per-rank block size).
    allgather_ring_min: int = 32 * KiB
    #: Alltoall: Bruck below, scattered isend/irecv in the middle,
    #: pairwise exchange above (per-pair block size).
    alltoall_bruck_max: int = 1 * KiB
    alltoall_medium_max: int = 32 * KiB

    # Internode threshold — consulted only when the communicator spans
    # several nodes of a cluster world (see repro.mpi.coll.hier).
    #: Allreduce: the two-level hierarchy (``allreduce_hier``) at/above.
    #: The hierarchy crosses the wire once per node instead of once per
    #: rank, so it wins once the fabric is bandwidth-bound.
    hier_allreduce_min: int = 64 * KiB
