"""Tests for the sweep/reporting machinery."""

import pytest

from repro.bench.harness import BenchmarkError, Series, Sweep, sweep_sizes
from repro.bench.reporting import format_csv, format_series_table, format_table
from repro.campaign.suites import stable_win
from repro.units import KiB, MiB


def test_sweep_sizes_bounds_and_monotonic():
    sizes = sweep_sizes(64 * KiB, 4 * MiB, per_octave=2)
    assert sizes[0] == 64 * KiB
    assert sizes[-1] == 4 * MiB
    assert sizes == sorted(set(sizes))
    assert 96 * KiB in sizes  # midpoints present


def test_sweep_sizes_powers_of_two_only():
    sizes = sweep_sizes(64 * KiB, 1 * MiB, per_octave=1)
    assert sizes == [64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB]


def test_sweep_sizes_midpoint_at_hi_is_kept():
    """per_octave=2 boundary: a 1.5x midpoint that lands exactly on
    ``hi`` ends the sweep (nothing past ``hi`` ever appears)."""
    sizes = sweep_sizes(1 * MiB, 3 * MiB, per_octave=2)
    assert sizes == [1 * MiB, 3 * MiB // 2, 2 * MiB, 3 * MiB]
    assert sweep_sizes(64 * KiB, 96 * KiB, per_octave=2) == [64 * KiB, 96 * KiB]
    assert all(s <= 3 * MiB for s in sizes)


def test_sweep_sizes_rejects_bad():
    with pytest.raises(BenchmarkError):
        sweep_sizes(0, 100)
    with pytest.raises(BenchmarkError):
        sweep_sizes(100, 10)


def test_series_lookup():
    s = Series("a", [(1, 10.0), (2, 20.0)])
    assert s.y_at(2) == 20.0
    assert s.xs == [1, 2]
    with pytest.raises(BenchmarkError):
        s.y_at(3)


def test_sweep_get_and_missing():
    sweep = Sweep("t", "x", "y")
    a = sweep.new_series("a")
    a.add(1, 1.0)
    assert sweep.get("a") is a
    with pytest.raises(BenchmarkError):
        sweep.get("b")


def _crossover(a: Series, b: Series):
    """Where ``b`` overtakes ``a`` for good, by the suites' rule."""
    return stable_win((x, b.y_at(x) > a.y_at(x)) for x in a.xs)


def test_crossover_detects_stable_win():
    a = Series("a", [(1, 10.0), (2, 10.0), (4, 10.0), (8, 10.0)])
    b = Series("b", [(1, 5.0), (2, 11.0), (4, 12.0), (8, 13.0)])
    assert _crossover(a, b) == 2


def test_crossover_requires_staying_ahead():
    a = Series("a", [(1, 10.0), (2, 10.0), (4, 10.0)])
    b = Series("b", [(1, 11.0), (2, 9.0), (4, 12.0)])
    assert _crossover(a, b) == 4


def test_crossover_none_when_never_wins():
    a = Series("a", [(1, 10.0), (2, 10.0)])
    b = Series("b", [(1, 5.0), (2, 5.0)])
    assert _crossover(a, b) is None


def test_format_table_alignment():
    text = format_table(["col", "val"], [["x", 1.5], ["yy", 23456.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "col" in lines[1] and "val" in lines[1]
    assert "23,456" in text


def test_format_series_table_renders_sizes():
    sweep = Sweep("Figure X", "size", "MiB/s")
    s = sweep.new_series("curve")
    s.add(64 * KiB, 123.0)
    s.add(1 * MiB, 456.0)
    text = format_series_table(sweep)
    assert "64KiB" in text and "1MiB" in text and "curve" in text


def test_format_csv():
    sweep = Sweep("f", "x", "y")
    s = sweep.new_series("a")
    s.add(1024, 2.5)
    text = format_csv(sweep)
    assert text.splitlines()[0] == "size,a"
    assert text.splitlines()[1] == "1024,2.500"
