"""Boundary tests for CollTuning: the dispatchers must switch algorithm
exactly at each threshold.  The selectors are plain functions returning
the chosen algorithm's generator, so ``gen.__name__`` identifies the
choice without running the collective."""

from repro.hw import cluster_of, xeon_e5345
from repro.mpi import run_cluster, run_mpi
from repro.units import KiB

TOPO = xeon_e5345()
SPEC2 = cluster_of(TOPO, 2)


def _chosen(ctx, nbytes):
    """Name of the algorithm each dispatcher picks for ``nbytes``."""
    from repro.mpi.coll.allgather import allgather
    from repro.mpi.coll.alltoall import alltoall
    from repro.mpi.coll.reduce import allreduce

    p = ctx.comm.size
    buf = ctx.alloc(nbytes)
    out = ctx.alloc(nbytes)
    big = ctx.alloc(p * nbytes)
    names = {}
    for key, gen in (
        ("allreduce", allreduce(ctx.comm, buf, out)),
        ("allgather", allgather(ctx.comm, buf, big)),
        ("alltoall", alltoall(ctx.comm, big, big)),  # per-pair block = nbytes
    ):
        names[key] = gen.__name__
        gen.close()
    return names


def _flat(nbytes):
    def main(ctx):
        return _chosen(ctx, nbytes)
        yield  # pragma: no cover

    return run_mpi(TOPO, 4, main).results[0]


def _hier(nbytes):
    def main(ctx):
        return _chosen(ctx, nbytes)
        yield  # pragma: no cover

    return run_cluster(SPEC2, 8, main, procs_per_node=4).results[0]


def test_allreduce_rabenseifner_min_boundary():
    assert _flat(2 * KiB - 1)["allreduce"] == "allreduce_recursive_doubling"
    assert _flat(2 * KiB)["allreduce"] == "allreduce_rabenseifner"


def test_allgather_ring_min_boundary():
    assert _flat(32 * KiB - 1)["allgather"] == "allgather_recursive_doubling"
    assert _flat(32 * KiB)["allgather"] == "allgather_ring"


def test_alltoall_bruck_max_boundary():
    assert _flat(1 * KiB)["alltoall"] == "alltoall_bruck"
    assert _flat(1 * KiB + 4)["alltoall"] == "alltoall_scattered"


def test_alltoall_medium_max_boundary():
    assert _flat(32 * KiB)["alltoall"] == "alltoall_scattered"
    assert _flat(32 * KiB + 4)["alltoall"] == "alltoall_pairwise"


def test_hier_allreduce_min_boundary():
    assert _hier(64 * KiB - 8)["allreduce"] == "allreduce_rabenseifner"
    assert _hier(64 * KiB)["allreduce"] == "allreduce_hier"
