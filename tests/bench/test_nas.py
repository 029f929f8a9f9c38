"""Tests for the NAS skeletons and Table 1 machinery."""

import pytest

from repro.bench.nas import BENCHMARKS, run_nas
from repro.bench.nas.spec import Compute, NasSpec, Stream
from repro.campaign import run_campaign
from repro.campaign.suites import SUITES
from repro.errors import BenchmarkError
from repro.hw import xeon_e5345
from repro.units import KiB, MiB

TOPO = xeon_e5345()


@pytest.fixture(scope="module")
def claims_nas(suite_store):
    """The metrics of the claims suite's 2-iteration is.B.8 and ep.B.4
    runs on the E5345, keyed ``(benchmark, mode)`` for the default and
    knem-ioat modes, read through the session store."""
    (spec,) = (s for s in SUITES["claims"].specs if s.name == "claims-nas")
    run = run_campaign(spec, cache=suite_store)
    return {
        (r["config"]["benchmark"], r["config"]["backend"]): r["metrics"]
        for r in run.records
    }


def _speedup(nas: dict, benchmark: str) -> float:
    """knem-ioat over default, as :meth:`NasResult.speedup_vs` reads it."""
    return (nas[benchmark, "default"]["seconds"]
            / nas[benchmark, "knem-ioat"]["seconds"] - 1.0)


def test_all_eight_benchmarks_registered():
    assert sorted(BENCHMARKS) == [
        "bt.B.4", "cg.B.8", "ep.B.4", "ft.B.8",
        "is.B.8", "lu.B.8", "mg.B.8", "sp.B.8",
    ]


def test_spec_labels_and_nprocs():
    assert BENCHMARKS["bt.B.4"].nprocs == 4
    assert BENCHMARKS["ep.B.4"].nprocs == 4
    assert BENCHMARKS["is.B.8"].nprocs == 8
    for label, spec in BENCHMARKS.items():
        assert spec.label == label
        assert spec.paper_default_seconds > 0


def test_spec_validation():
    with pytest.raises(BenchmarkError):
        NasSpec(
            name="x", klass="B", nprocs=0, iterations=1,
            arrays={}, iteration=[Compute(1.0)],
        )
    with pytest.raises(BenchmarkError):
        NasSpec(
            name="x", klass="B", nprocs=1, iterations=1,
            arrays={}, iteration=[Stream("missing")],
        )


def test_is_runs_and_extrapolates(claims_nas):
    spec = BENCHMARKS["is.B.8"]
    r1 = run_nas(spec, TOPO, iterations=1)
    assert r1.label == "is.B.8"
    # Extrapolation: one and two iterations estimate the same
    # 10-iteration total.
    assert r1.seconds == pytest.approx(
        claims_nas["is.B.8", "default"]["seconds"], rel=0.15)


def test_is_default_matches_paper_calibration():
    spec = BENCHMARKS["is.B.8"]
    r = run_nas(spec, TOPO, mode="default", iterations=3)
    assert r.seconds == pytest.approx(spec.paper_default_seconds, rel=0.10)


def test_is_knem_ioat_speedup_shape(claims_nas):
    """The paper's headline: ~25% faster with KNEM + I/OAT."""
    assert 0.15 < _speedup(claims_nas, "is.B.8") < 0.45
    # Fewer misses drive it (Table 2's last row).
    assert (claims_nas["is.B.8", "knem-ioat"]["l2_misses"]
            < claims_nas["is.B.8", "default"]["l2_misses"])


def test_ep_insensitive_to_mode(claims_nas):
    assert abs(_speedup(claims_nas, "ep.B.4")) < 0.02


def test_mg_notes_mention_vmsplice_hang():
    assert "vmsplice" in BENCHMARKS["mg.B.8"].notes


def test_custom_tiny_spec_runs():
    spec = NasSpec(
        name="mini", klass="T", nprocs=2, iterations=2,
        arrays={"w": 256 * KiB},
        iteration=[Stream("w", passes=1), Compute(0.001)],
        paper_default_seconds=1.0,
    )
    r = run_nas(spec, TOPO, iterations=2)
    assert r.seconds > 0.002  # two iterations of >= 1ms compute
