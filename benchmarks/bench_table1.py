"""Regenerate Table 1: NAS Parallel Benchmark execution times."""

import pytest
from conftest import run_once, run_specs

from repro.bench.nas import BENCHMARKS
from repro.bench.reporting import format_table1
from repro.campaign.suites import table1_rows


def _rows(kernels, cap):
    """Table 1's rows of ``kernels``, each timing ``cap`` iterations."""
    return table1_rows(run_specs("table1", benchmarks=tuple(kernels), reps=cap))


def _speedup(seconds):
    return seconds["default"] / seconds["knem-ioat"] - 1.0


def test_table1_is_row(benchmark):
    """The headline row: is.B.8 with its ~25% KNEM+I/OAT speedup."""
    rows = run_once(benchmark, _rows, ["is.B.8"], 3)
    print("\n" + format_table1(rows))
    ((label, seconds),) = rows
    assert seconds["default"] == pytest.approx(
        BENCHMARKS[label].paper_default_seconds, rel=0.15
    )
    assert 0.15 < _speedup(seconds) < 0.45  # paper: +25.8%
    # Single-copy strategies in between.
    assert seconds["knem-ioat"] < seconds["knem"] < seconds["default"]
    assert seconds["vmsplice"] < seconds["default"]


def test_table1_ft_row(benchmark):
    rows = run_once(benchmark, _rows, ["ft.B.8"], 3)
    print("\n" + format_table1(rows))
    ((label, seconds),) = rows
    assert seconds["default"] == pytest.approx(
        BENCHMARKS[label].paper_default_seconds, rel=0.15
    )
    assert 0.05 < _speedup(seconds) < 0.25  # paper: +10.6%


def test_table1_insensitive_rows(benchmark):
    """ep/lu/mg: no large messages, so deltas stay within a few %."""
    rows = run_once(benchmark, _rows, ["ep.B.4", "lu.B.8", "mg.B.8"], 2)
    print("\n" + format_table1(rows))
    for label, seconds in rows:
        paper_default = BENCHMARKS[label].paper_default_seconds
        assert seconds["default"] == pytest.approx(paper_default, rel=0.15)
        assert abs(_speedup(seconds)) < 0.06, label
