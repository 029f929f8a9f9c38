"""The unified metrics registry and its end-of-run absorption.

The acceptance bar: ``snapshot()["BYTES_COPIED"]`` / ``["DMA_BYTES"]``
equal the Papi readings *exactly* — same numbers, one namespace.
"""

import pytest

from repro import ClusterSpec, FaultPlan, ObsConfig, run_cluster, run_mpi
from repro.errors import SimulationError
from repro.hw import xeon_e5345
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.units import KiB, MiB

TOPO = xeon_e5345()
SPEC = ClusterSpec(node=TOPO, nnodes=2)
PAIR = [(0, 0), (1, 0)]


def _pingpong(nbytes, reps=1):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        for rep in range(reps):
            if ctx.rank == 0:
                yield comm.Send(buf, dest=peer, tag=rep)
                yield comm.Recv(buf, source=peer, tag=rep)
            else:
                yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep)

    return main


# -------------------------------------------------------- instruments
def test_counter_monotonic():
    c = Counter("x")
    c.inc()
    c.inc(2)
    assert c.value == 3
    with pytest.raises(SimulationError):
        c.inc(-1)


def test_gauge_goes_both_ways():
    g = Gauge("x")
    g.set(5)
    g.set(2)
    assert g.value == 2


def test_histogram_log2_buckets():
    assert Histogram.bucket_of(1) == 0
    assert Histogram.bucket_of(2) == 1
    assert Histogram.bucket_of(3) == 2
    assert Histogram.bucket_of(1024) == 10
    assert Histogram.bucket_of(1025) == 11
    assert Histogram.bucket_of(0.25) == -2  # sub-second durations
    h = Histogram("sizes")
    for v in (1, 2, 3, 4, 1024):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == 1034
    assert snap["min"] == 1 and snap["max"] == 1024
    assert snap["buckets"] == {"le_2^0": 1, "le_2^1": 1, "le_2^2": 2,
                               "le_2^10": 1}
    with pytest.raises(SimulationError):
        h.observe(-1)


def test_registry_rejects_cross_type_name_collisions():
    reg = MetricsRegistry()
    reg.counter("a")
    assert reg.counter("a") is reg.counter("a")  # get-or-create
    with pytest.raises(SimulationError):
        reg.gauge("a")
    with pytest.raises(SimulationError):
        reg.histogram("a")


# ------------------------------------------------------- absorption
def test_snapshot_matches_papi_exactly():
    result = run_mpi(TOPO, 2, _pingpong(1 * MiB, reps=2), bindings=[0, 4],
                     mode="knem-ioat", obs=ObsConfig(spans=True))
    snap = result.obs.metrics.snapshot()
    assert snap["BYTES_COPIED"] == result.papi.total("BYTES_COPIED")
    assert snap["DMA_BYTES"] == result.papi.total("DMA_BYTES")
    assert snap["L2_MISSES"] == result.papi.total("L2_MISSES")
    assert snap["DMA_BYTES"] == 2 * 2 * 1 * MiB  # 2 reps x 2 directions
    assert snap["dma.engine_bytes"] == snap["DMA_BYTES"]
    assert snap["sim.elapsed_seconds"] == result.elapsed
    assert snap["mpi.rndv_received"] == 4
    assert snap["engine.events_executed"] > 0


def test_cluster_papi_counters_match_per_machine_totals():
    from repro.hw.counters import EVENTS

    result = run_cluster(SPEC, 2, _pingpong(256 * KiB, reps=2), bindings=PAIR)
    snap = result.obs.metrics.snapshot()
    machines = result.world.cluster.machines
    for event in EVENTS:
        expected = sum(m.papi.total(event) for m in machines)
        assert repr(snap[event]) == repr(expected), event


def test_metrics_on_by_default_without_spans():
    result = run_mpi(TOPO, 2, _pingpong(256 * KiB), bindings=[0, 4],
                     mode="knem")
    snap = result.obs.metrics.snapshot()
    assert snap["BYTES_COPIED"] == result.papi.total("BYTES_COPIED")
    # No span histograms without spans.
    assert not any(k.startswith("span.") for k in snap)


def test_span_histograms_absorbed_when_traced():
    result = run_mpi(TOPO, 2, _pingpong(1 * MiB), bindings=[0, 4],
                     mode="knem-ioat", obs=ObsConfig(spans=True))
    snap = result.obs.metrics.snapshot()
    dma = snap["span.dma.seconds"]
    assert dma["count"] == len(
        [s for s in result.obs.spans if s.kind == "dma"]
    )


def test_absorb_is_idempotent():
    result = run_mpi(TOPO, 2, _pingpong(256 * KiB), bindings=[0, 4],
                     mode="knem")
    first = result.obs.metrics.snapshot()
    result.obs.metrics.absorb_world(result.world)
    assert result.obs.metrics.snapshot()["BYTES_COPIED"] == first["BYTES_COPIED"]


def test_cluster_absorbs_nic_fault_and_regcache_counters():
    result = run_cluster(
        SPEC, 2, _pingpong(256 * KiB, reps=2), bindings=PAIR,
        faults=FaultPlan(seed=3, drop=0.1), obs=ObsConfig(spans=True),
    )
    snap = result.obs.metrics.snapshot()
    nics = result.fabric.nics
    assert snap["nic.retransmits"] == sum(n.retransmits for n in nics) > 0
    assert snap["nic.bytes_tx"] == sum(n.bytes_tx for n in nics)
    assert snap["faults.drops_injected"] == result.fabric.faults.counters()[
        "drops_injected"
    ]
    assert "regcache.hit_rate" in snap
    # Wire work shows up in the span histograms.
    assert snap["span.wire.seconds"]["count"] > 0
