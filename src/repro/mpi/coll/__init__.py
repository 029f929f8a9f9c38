"""Collective operations over the point-to-point layer.

Algorithm choices follow MPICH2's conventions for intranode runs:

- Barrier: dissemination (log2 p rounds of zero-byte messages);
- Bcast / Reduce: binomial trees;
- Allreduce: recursive doubling (short) or Rabenseifner reduce-scatter +
  allgather (long) on power-of-two sizes, reduce + bcast otherwise, and
  the leader hierarchy of :mod:`repro.mpi.coll.hier` for long payloads
  on a cluster;
- Allgather: recursive doubling (short, power-of-two) or ring;
- Alltoall(v): Bruck (tiny blocks), scattered isend/irecv (medium) or
  pairwise exchange (large; XOR schedule on power-of-two sizes) — the
  last two are the algorithms active in the paper's Fig. 7
  measurements.

Each collective wraps its large-message phase in the world's
*collective hint* so the adaptive LMT policy can lower its I/OAT
threshold (Secs. 4.4 and 6 of the paper).
"""

from repro import _lazy_exports

# Lazy, so that importing one module of the package (the world imports
# ``tuning``) does not load every collective.
_lazy_exports(__name__, {
    "repro.mpi.coll.allgather": ("allgather", "allgather_recursive_doubling", "allgather_ring"),
    "repro.mpi.coll.alltoall": ("alltoall", "alltoall_bruck", "alltoallv"),
    "repro.mpi.coll.barrier": ("barrier",),
    "repro.mpi.coll.bcast": ("bcast",),
    "repro.mpi.coll.reduce": (
        "allreduce",
        "allreduce_rabenseifner",
        "allreduce_recursive_doubling",
        "reduce",
        "reduce_scatter_block",
    ),
    "repro.mpi.coll.tuning": ("CollTuning",),
})

__all__ = [
    "allgather",
    "allgather_ring",
    "allgather_recursive_doubling",
    "alltoall",
    "alltoall_bruck",
    "alltoallv",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "allreduce_recursive_doubling",
    "allreduce_rabenseifner",
    "reduce_scatter_block",
    "CollTuning",
]
