"""Replicate aggregation and the baseline regression gate."""

import pytest

from repro.campaign import aggregate, compare_campaigns
from repro.campaign.stats import _quantile
from repro.errors import BenchmarkError


def _record(seed, value, status="ok", **config):
    cfg = {
        "workload": "pingpong", "machine": "xeon_e5345",
        "backend": "default", "size": 65536, "nnodes": 1,
        "pair": [0, 1], "drop": 0.0, "tuning": "default", "seed": seed,
    }
    cfg.update(config)
    return {
        "config": cfg,
        "seed": seed,
        "status": status,
        "primary": "mib_per_s",
        "metrics": {"mib_per_s": value} if status == "ok" else None,
        "error": None if status == "ok" else "BenchmarkError: boom",
    }


def _doc(aggregates, name="c"):
    return {"name": name, "aggregates": aggregates}


def test_quantile_interpolates():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert _quantile(vals, 0.5) == 2.5
    assert _quantile(vals, 0.0) == 1.0
    assert _quantile(vals, 1.0) == 4.0
    with pytest.raises(BenchmarkError):
        _quantile([], 0.5)


def test_aggregate_medians_and_bands():
    records = [_record(s, v) for s, v in enumerate([100.0, 110.0, 90.0])]
    (row,) = aggregate(records)
    assert row["n"] == 3
    assert row["median"] == 100.0
    assert row["q25"] == 95.0 and row["q75"] == 105.0
    assert row["iqr"] == 10.0
    assert row["ci_lo"] < 100.0 < row["ci_hi"]
    assert row["min"] == 90.0 and row["max"] == 110.0
    assert row["seeds"] == [0, 1, 2]
    assert "seed" not in row["config"]


def test_aggregate_groups_by_config_not_seed():
    records = (
        [_record(s, 100.0) for s in (0, 1)]
        + [_record(s, 50.0, backend="knem") for s in (0, 1)]
    )
    rows = aggregate(records)
    assert len(rows) == 2
    assert rows[0]["median"] == 100.0
    assert rows[1]["median"] == 50.0


def test_aggregate_counts_failed_replicates():
    records = [
        _record(0, 100.0),
        _record(1, 0.0, status="failed"),
        _record(2, 102.0),
    ]
    (row,) = aggregate(records)
    assert row["n"] == 2
    assert row["failures"] == 1
    # A fully dark group still appears, with no statistics.
    dark = [_record(0, 0.0, status="failed")]
    (drow,) = aggregate(dark)
    assert drow["n"] == 0 and "median" not in drow


def test_one_sample_group_has_no_confidence_band():
    """One replicate cannot estimate a band: a zero-width one would read
    as exact, so ``ci_lo``/``ci_hi`` are left out (two replicates keep
    them)."""
    (one,) = aggregate([_record(0, 100.0)])
    assert one["n"] == 1 and one["median"] == 100.0 and one["iqr"] == 0.0
    assert "ci_lo" not in one and "ci_hi" not in one
    assert one["min"] == one["max"] == 100.0
    (two,) = aggregate([_record(0, 100.0), _record(1, 110.0)])
    assert two["ci_lo"] < two["median"] < two["ci_hi"]
    assert list(two) == list(one)[:-2] + ["ci_lo", "ci_hi", "min", "max"]


def test_gate_passes_within_tolerance():
    base = _doc(aggregate([_record(s, 100.0 + s) for s in range(3)]))
    cur = _doc(aggregate([_record(s, 102.0 + s) for s in range(3)]))
    comparison = compare_campaigns(base, cur, tolerance=0.05)
    assert comparison.ok
    assert "OK" in comparison.format()


def test_gate_flags_injected_drift_and_names_trials():
    base = _doc(aggregate([_record(s, 100.0) for s in range(3)]))
    cur = _doc(aggregate([_record(s, 80.0) for s in range(3)]))
    comparison = compare_campaigns(base, cur, tolerance=0.05)
    assert not comparison.ok
    (row,) = comparison.regressions
    assert row[0] == "pingpong/xeon_e5345/default/64KiB/n1"
    assert row[4] == pytest.approx(-0.2)
    assert "REGRESSIONS" in comparison.format()
    assert "pingpong/xeon_e5345/default/64KiB/n1" in comparison.format()


def test_gate_flags_group_that_went_dark():
    base = _doc(aggregate([_record(0, 100.0)]))
    cur = _doc(aggregate([_record(0, 0.0, status="failed")]))
    comparison = compare_campaigns(base, cur)
    assert comparison.broken == ["pingpong/xeon_e5345/default/64KiB/n1"]
    assert not comparison.ok
    assert "now failing" in comparison.format()


def test_gate_ignores_new_groups_and_dark_baselines():
    base = _doc(aggregate(
        [_record(0, 100.0)] + [_record(0, 0.0, status="failed", size=1 << 20)]
    ))
    cur = _doc(aggregate(
        [_record(0, 101.0)]
        + [_record(0, 55.0, size=1 << 20)]       # dark in baseline
        + [_record(0, 77.0, backend="knem")]     # absent from baseline
    ))
    comparison = compare_campaigns(base, cur)
    assert comparison.ok
    assert len(comparison.rows) == 1
    assert comparison.unmatched == ["pingpong/xeon_e5345/knem/64KiB/n1"]


def test_gate_requires_overlap():
    base = _doc(aggregate([_record(0, 100.0)]))
    cur = _doc(aggregate([_record(0, 100.0, machine="xeon_x5460")]))
    with pytest.raises(BenchmarkError):
        compare_campaigns(base, cur)
