"""Verdicts of perf/compare.py on synthetic result sets."""

import json

import pytest

from compare import compare, verdict

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]


def _shift(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize(
    "new, better, expected",
    [
        (_shift(BASE, 0.7), "lower", "improved"),
        (_shift(BASE, 1.3), "lower", "regressed"),
        (_shift(BASE, 1.01), "lower", "unchanged"),
        (_shift(BASE, 1.3), "higher", "improved"),
        (_shift(BASE, 0.7), "higher", "regressed"),
    ],
)
def test_verdict_against_a_tight_base(new, better, expected):
    assert verdict(BASE, new, better, bound=0.1) == expected


def test_a_base_wider_than_the_bound_is_unresolved_unless_dominated():
    wide = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert verdict(wide, _shift(wide, 1.15), "lower", bound=0.1) == "unresolved"
    assert verdict(wide, _shift(wide, 0.95), "lower", bound=0.1) == "unresolved"
    assert verdict(wide, [5.0] * 10, "lower", bound=0.1) == "improved"


def test_a_claim_needs_nine_of_ten_pair_wins():
    new = _shift(BASE, 0.9)
    assert verdict(BASE, new, "lower", 0.1, claim=True) == "improved"
    # Two of ten pairs lost: the medians still differ, the claim fails.
    lost = new[:8] + [BASE[8] * 1.01, BASE[9] * 1.01]
    assert verdict(BASE, lost, "lower", 0.1) == "improved"
    assert verdict(BASE, lost, "lower", 0.1, claim=True) == "unresolved"
    assert verdict(BASE[:5], new[:5], "lower", 0.1, claim=True) == "unresolved"


def _result_file(path, round_s, failed=0):
    metrics = {} if failed else {"round_s": round_s, "setup_s": 0.3}
    result = {"correct": not failed, "attempted": 40, "failed": failed, "metrics": metrics}
    path.write_text(json.dumps({"workloads": {"p2p": result}}))
    return path


def test_compare_reports_each_workload_metric_and_fails_on_regression(tmp_path):
    base = [_result_file(tmp_path / f"b{i}.json", v) for i, v in enumerate(BASE)]
    slow = [_result_file(tmp_path / f"n{i}.json", v * 1.5) for i, v in enumerate(BASE)]
    lines, ok = compare(base, slow)
    assert not ok
    assert lines[1].startswith("p2p") and lines[1].endswith("regressed")
    lines, ok = compare(base, base, claims={"p2p:round_s"})
    assert not ok and lines[1].endswith("unresolved (claimed)")


def test_compare_fails_rows_of_runs_with_more_failed_ops(tmp_path):
    base = [_result_file(tmp_path / f"b{i}.json", v) for i, v in enumerate(BASE)]
    # Wrong outputs everywhere: no round_s at all, so nothing to compare.
    broken = [_result_file(tmp_path / f"n{i}.json", v, failed=40) for i, v in enumerate(BASE)]
    lines, ok = compare(base, broken)
    assert not ok
    assert [line.split()[:2] for line in lines[1:]] == [["p2p", "round_s"], ["p2p", "setup_s"]]
    assert all("failed (400 failed ops in 10 runs, base 0)" in line for line in lines[1:])
    # One failing run among good ones still fails every row of p2p.
    mixed = base[:9] + [broken[9]]
    lines, ok = compare(base, mixed)
    assert not ok and all(" failed (" in line for line in lines[1:])
    lines, ok = compare(base, base)
    assert ok and all(line.endswith("unchanged") for line in lines[1:])
