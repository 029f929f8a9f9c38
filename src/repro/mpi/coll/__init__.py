"""Collective operations over the point-to-point layer.

Algorithm choices follow MPICH2's conventions for intranode runs:

- Barrier: dissemination (log2 p rounds of zero-byte messages);
- Bcast / Reduce: binomial trees;
- Allreduce: reduce + bcast;
- Gather / Scatter: linear to/from root (messages are large here);
- Allgather: ring (p-1 neighbor exchanges);
- Alltoall(v): pairwise exchange (XOR schedule on power-of-two sizes) —
  the algorithm active in the paper's Fig. 7 measurements.

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
    "repro.mpi.coll.bcast": ("bcast", "bcast_binomial", "bcast_scatter_allgather"),
    "repro.mpi.coll.gather": ("gather", "scatter"),
    "repro.mpi.coll.reduce": (
        "allreduce",
        "allreduce_rabenseifner",
        "allreduce_recursive_doubling",
        "reduce",
        "reduce_scatter_block",
    ),
    "repro.mpi.coll.tuning": ("CollTuning",),
    "repro.mpi.coll.vector": ("allgatherv", "gatherv", "scatterv"),
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
    "bcast_binomial",
    "bcast_scatter_allgather",
    "gather",
    "scatter",
    "reduce",
    "allreduce",
    "allreduce_recursive_doubling",
    "allreduce_rabenseifner",
    "reduce_scatter_block",
    "gatherv",
    "scatterv",
    "allgatherv",
    "CollTuning",
]
