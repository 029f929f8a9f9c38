"""The hierarchical allreduce: correctness and the hier-vs-flat win."""

import numpy as np
import pytest

from repro.hw import cluster_of, xeon_e5345
from repro.mpi import run_cluster
from repro.mpi.coll.tuning import CollTuning
from repro.units import KiB

TOPO = xeon_e5345()
SPEC2 = cluster_of(TOPO, 2)

FLAT = CollTuning(hier_allreduce_min=1 << 40)
HIER = CollTuning(hier_allreduce_min=1)


def _allreduce_main(nbytes):
    def main(ctx):
        from repro.mpi.coll.reduce import allreduce

        a = ctx.alloc(nbytes)
        b = ctx.alloc(nbytes)
        a.data[:] = ctx.rank + 1
        yield from allreduce(ctx.comm, a, b)
        t0 = ctx.now
        yield from allreduce(ctx.comm, a, b)
        return ctx.now - t0, int(b.data[0]), int(b.data[-1])

    return main


def test_hier_allreduce_correct():
    r = run_cluster(
        SPEC2, 8, _allreduce_main(96 * KiB), procs_per_node=4, coll_tuning=HIER
    )
    total = sum(range(1, 9)) % 256
    assert all((lo, hi) == (total, total) for _t, lo, hi in r.results)


def test_hier_allreduce_beats_flat_for_large_messages():
    """The acceptance shape: on >=2 nodes the two-level algorithm must
    win once the payload is bandwidth-bound (each byte crosses the wire
    once per node instead of once per rank)."""
    nbytes = 256 * KiB
    times = {}
    for label, tuning in (("flat", FLAT), ("hier", HIER)):
        r = run_cluster(
            SPEC2, 8, _allreduce_main(nbytes), procs_per_node=4, coll_tuning=tuning
        )
        times[label] = max(t for t, _lo, _hi in r.results)
    assert times["hier"] < times["flat"]


def test_hier_allreduce_default_threshold_dispatches_hier():
    """With default tuning a 256 KiB allreduce crosses hier_allreduce_min
    and must run the hierarchical algorithm (visible as the win above)."""
    nbytes = 256 * KiB
    default = run_cluster(SPEC2, 8, _allreduce_main(nbytes), procs_per_node=4)
    flat = run_cluster(
        SPEC2, 8, _allreduce_main(nbytes), procs_per_node=4, coll_tuning=FLAT
    )
    assert max(t for t, *_ in default.results) < max(t for t, *_ in flat.results)


def test_hier_allreduce_irregular_layout_falls_back_correctly():
    """3 ranks on node 0 and 1 on node 1: the leader-based fallback
    still produces the right values."""
    r = run_cluster(
        SPEC2,
        4,
        _allreduce_main(64 * KiB + 1),  # odd size: not divisible either
        bindings=[(0, 0), (0, 1), (0, 2), (1, 0)],
        coll_tuning=HIER,
    )
    total = sum(range(1, 5))
    assert all((lo, hi) == (total, total) for _t, lo, hi in r.results)


@pytest.mark.parametrize("ndoubles", [256, 250])
def test_hier_allreduce_float64_slices_whole_elements(ndoubles):
    """250 doubles over 4 members is 500 B a slice, which would cut a
    double in half: that layout takes the leader fallback instead."""

    def values(rank):
        return np.arange(ndoubles, dtype=np.float64) * 0.25 + rank

    def main(ctx):
        send, recv = ctx.alloc(8 * ndoubles), ctx.alloc(8 * ndoubles)
        send.data.view(np.float64)[:] = values(ctx.rank)
        yield ctx.comm.Allreduce(send, recv, dtype=np.float64)
        return recv.data.view(np.float64).copy()

    r = run_cluster(SPEC2, 8, main, procs_per_node=4, coll_tuning=HIER)
    expected = sum(values(k) for k in range(8))
    assert all(np.array_equal(got, expected) for got in r.results)
