"""Regenerate Figure 5: Pingpong throughput, no shared cache."""

from conftest import run_once, run_suite

from repro.bench.reporting import format_series_table
from repro.campaign.suites import figure_sweep
from repro.units import MiB


def test_fig5(benchmark):
    doc = run_once(benchmark, run_suite, "fig5-fast")
    sweep = figure_sweep(5, doc["campaigns"])
    print("\n" + format_series_table(sweep))

    at = 1 * MiB
    d = sweep.get("default LMT").y_at(at)
    v = sweep.get("vmsplice LMT").y_at(at)
    k = sweep.get("KNEM LMT").y_at(at)

    # "KNEM is more than three times faster than Nemesis and twice as
    # fast as vmsplice" — we reproduce the ordering with >2.2x / >1.3x.
    assert k > v > d
    assert k > 2.2 * d
    assert k > 1.3 * v

    # I/OAT overtakes everything for very large messages ("a factor of
    # 2.5 over Nemesis").
    tail = 4 * MiB
    i_tail = sweep.get("KNEM LMT with I/OAT").y_at(tail)
    d_tail = sweep.get("default LMT").y_at(tail)
    assert i_tail > 2.0 * d_tail
    assert i_tail > sweep.get("KNEM LMT").y_at(tail)
