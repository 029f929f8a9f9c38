"""Tests for span-based timelines (the Fig. 2 visualization)."""

import pytest

from repro.bench.timeline import core_busy_fraction, render_timeline
from repro.errors import BenchmarkError
from repro.hw import xeon_e5345
from repro.mpi import run_mpi
from repro.obs import ObsConfig
from repro.units import KiB, MiB

TOPO = xeon_e5345()


def _traced_run(mode):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(2 * MiB)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1)
        else:
            yield comm.Recv(buf, source=0)

    return run_mpi(
        TOPO, 2, main, bindings=[0, 4], mode=mode, obs=ObsConfig(spans=True)
    )


def test_untraced_run_raises():
    with pytest.raises(BenchmarkError):
        render_timeline([], ncores=8)


def test_knem_timeline_shows_receiver_core_copying():
    spans = _traced_run("knem").obs.spans
    text = render_timeline(spans, ncores=8)
    assert "core4" in text and "dma" in text
    # Receiver core (4) did the single copy; sender core (0) none.
    assert core_busy_fraction(spans, 4) > 0.5
    assert core_busy_fraction(spans, 0) < 0.05
    # No DMA activity in the kernel-copy mode.
    assert "=" not in text.splitlines()[9]


def test_ioat_timeline_shows_dma_lane_and_idle_cores():
    """The Fig. 2 picture: with I/OAT the copy runs in the DMA lane
    while both cores stay (almost) idle."""
    spans = _traced_run("knem-ioat").obs.spans
    text = render_timeline(spans, ncores=8)
    dma_line = next(l for l in text.splitlines() if l.startswith("dma"))
    assert "=" in dma_line
    assert core_busy_fraction(spans, 4) < 0.1


def test_default_timeline_shows_both_cores_copying():
    spans = _traced_run("default").obs.spans
    # Both ends actively copy (pipelined through the ring; the sender
    # also waits on cell handoffs, so its busy fraction is lower).
    assert core_busy_fraction(spans, 0) > 0.2
    assert core_busy_fraction(spans, 4) > 0.35


def test_busy_fraction_counts_overlapping_copies_once():
    """A Sendrecv copies both directions at once, so each core holds
    overlapping copy chunks (32 per core, 15 overlapping the one
    before).  Their durations sum to 1.25 of the window; the busy
    fraction is the union of the intervals."""

    def main(ctx):
        peer = 1 - ctx.rank
        sbuf = ctx.alloc(256 * KiB)
        rbuf = ctx.alloc(256 * KiB)
        yield ctx.comm.Sendrecv(sbuf, peer, rbuf, peer)

    r = run_mpi(
        TOPO, 2, main, bindings=[0, 4], mode="default",
        obs=ObsConfig(spans=True),
    )
    spans = r.obs.spans
    for core in (0, 4):
        busy = core_busy_fraction(spans, core)
        assert busy == pytest.approx(0.8941684665226776, rel=1e-12)
        assert busy < 1.0


def test_timeline_dimensions():
    r = _traced_run("knem")
    text = render_timeline(r.obs.spans, ncores=4, width=40)
    lanes = [l for l in text.splitlines() if l.startswith("core")]
    assert len(lanes) == 4
    assert all(len(l.split("|", 1)[1]) == 40 for l in lanes)


def test_cluster_timeline_shows_nic_wire_lanes():
    """Internode runs render one ``~`` lane per transmitting NIC, and
    the window bounds include the wire spans (a pure-wire run used to
    raise because the window only covered copy/dma records)."""
    from repro import ClusterSpec, run_cluster

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(1 * MiB)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1)
        else:
            yield comm.Recv(buf, source=0)

    spec = ClusterSpec(node=TOPO, nnodes=2)
    r = run_cluster(
        spec, 2, main, bindings=[(0, 0), (1, 0)], obs=ObsConfig(spans=True)
    )
    text = render_timeline(r.obs.spans, ncores=2)
    nic_lanes = [l for l in text.splitlines() if l.startswith("nic")]
    assert nic_lanes and any("~" in l for l in nic_lanes)
    assert "~ nic wire" in text.splitlines()[-1]


def test_intranode_timeline_has_no_nic_lane_or_legend():
    r = _traced_run("knem")
    text = render_timeline(r.obs.spans, ncores=8)
    assert not any(l.startswith("nic") for l in text.splitlines())
    assert "~ nic wire" not in text
