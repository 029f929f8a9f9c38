"""Regenerate Figure 3: Pingpong, vmsplice vs writev vs default LMT."""

from conftest import run_once, run_suite

from repro.bench.reporting import format_series_table
from repro.campaign.suites import figure_sweep
from repro.units import MiB


def test_fig3(benchmark):
    doc = run_once(benchmark, run_suite, "fig3-fast")
    sweep = figure_sweep(3, doc["campaigns"])
    print("\n" + format_series_table(sweep))

    at = 1 * MiB
    d_shared = sweep.get("default LMT - Shared Cache").y_at(at)
    v_shared = sweep.get("vmsplice LMT - Shared Cache").y_at(at)
    w_shared = sweep.get("vmsplice LMT using writev - Shared Cache").y_at(at)
    d_dies = sweep.get("default LMT - Different Dies").y_at(at)
    v_dies = sweep.get("vmsplice LMT - Different Dies").y_at(at)
    w_dies = sweep.get("vmsplice LMT using writev - Different Dies").y_at(at)

    # Splicing beats writev ("up to a factor of 2") in both placements.
    assert v_shared > 1.3 * w_shared
    assert v_dies > 1.15 * w_dies
    # vmsplice wins across dies, loses inside a shared cache.
    assert v_dies > d_dies
    assert v_shared < d_shared
