"""Regenerate Figure 7: IMB Alltoall aggregated throughput, 8 ranks."""

from conftest import run_once, run_suite

from repro.bench.reporting import format_series_table
from repro.campaign.suites import figure_sweep, stable_win
from repro.units import KiB


def test_fig7(benchmark):
    doc = run_once(benchmark, run_suite, "fig7-fast")
    sweep = figure_sweep(7, doc["campaigns"])
    print("\n" + format_series_table(sweep))

    # KNEM clearly ahead of the default for medium blocks.
    at = 32 * KiB
    assert sweep.get("KNEM LMT").y_at(at) > 1.6 * sweep.get("default LMT").y_at(at)
    # vmsplice provides "a smaller but still worthwhile improvement".
    assert sweep.get("vmsplice LMT").y_at(at) > sweep.get("default LMT").y_at(at)

    # I/OAT becomes interesting far below the 1 MiB point-to-point
    # threshold (paper: near 200 KiB), by the suites' crossover rule.
    knem, ioat = sweep.get("KNEM LMT"), sweep.get("KNEM LMT with I/OAT")
    x = stable_win((s, ioat.y_at(s) > knem.y_at(s)) for s in sweep.xs)
    assert x is not None and x <= 512 * KiB
