"""Tests for the IMB kernels."""

import pytest

from repro.bench.imb import imb_alltoall, imb_pingpong
from repro.errors import BenchmarkError
from repro.hw import xeon_e5345
from repro.units import KiB, MiB

TOPO = xeon_e5345()


def test_pingpong_result_fields():
    r = imb_pingpong(TOPO, 128 * KiB, mode="knem", bindings=(0, 4), repetitions=3)
    assert r.nbytes == 128 * KiB
    assert r.mode == "knem"
    assert r.bindings == (0, 4)
    assert r.one_way_seconds > 0
    assert r.throughput_mib > 0
    assert r.l2_misses >= 0


def test_pingpong_rejects_bad_params():
    with pytest.raises(BenchmarkError):
        imb_pingpong(TOPO, 0)
    with pytest.raises(BenchmarkError):
        imb_pingpong(TOPO, 1024, repetitions=0)


def test_negative_warmup_is_refused_before_simulating(monkeypatch):
    """A negative warm-up would time the wrong repetitions (or none at
    all): both kernels refuse it, naming it, before any simulation."""
    import repro.bench.imb as imb

    def no_run(*args, **kwargs):
        raise AssertionError("simulated despite a negative warmup")

    monkeypatch.setattr(imb, "run_mpi", no_run)
    with pytest.raises(BenchmarkError, match="warmup"):
        imb.imb_pingpong(TOPO, 4096, warmup=-1, repetitions=2)
    with pytest.raises(BenchmarkError, match="warmup"):
        imb.imb_alltoall(TOPO, 4096, nprocs=4, warmup=-1, repetitions=3)


def test_pingpong_warmup_excluded():
    """More warmup must not change the measured steady-state rate."""
    a = imb_pingpong(TOPO, 256 * KiB, warmup=1, repetitions=4)
    b = imb_pingpong(TOPO, 256 * KiB, warmup=4, repetitions=4)
    assert a.throughput_mib == pytest.approx(b.throughput_mib, rel=0.02)


def test_pingpong_scales_with_message_size():
    small = imb_pingpong(TOPO, 128 * KiB, mode="knem")
    large = imb_pingpong(TOPO, 1 * MiB, mode="knem")
    assert large.one_way_seconds > 4 * small.one_way_seconds


def test_alltoall_result_fields():
    r = imb_alltoall(TOPO, 16 * KiB, mode="default", repetitions=2)
    assert r.block_bytes == 16 * KiB
    assert r.nprocs == 8
    assert r.seconds_per_op > 0
    moved = 8 * 7 * 16 * KiB
    assert r.aggregated_mib == pytest.approx(moved / 2**20 / r.seconds_per_op)


def test_alltoall_rejects_bad_params():
    with pytest.raises(BenchmarkError):
        imb_alltoall(TOPO, 0)


def test_alltoall_four_ranks():
    r = imb_alltoall(TOPO, 32 * KiB, nprocs=4, repetitions=2)
    assert r.nprocs == 4
    assert r.aggregated_mib > 0


def test_fig7_shape_knem_beats_default_medium():
    """Fig. 7 headline: KNEM clearly ahead of the default near 32 KiB
    (paper: up to 5x; the simulation reproduces ~2x — see
    EXPERIMENTS.md for the documented gap)."""
    from repro.core.policy import LmtConfig

    default = imb_alltoall(TOPO, 32 * KiB, mode="default", repetitions=2)
    knem = imb_alltoall(
        TOPO,
        32 * KiB,
        mode="knem",
        repetitions=2,
        config=LmtConfig(mode="knem", eager_threshold=2 * KiB),
    )
    assert knem.aggregated_mib > 1.6 * default.aggregated_mib
