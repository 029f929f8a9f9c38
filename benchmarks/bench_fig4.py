"""Regenerate Figure 4: Pingpong throughput, shared 4 MiB L2."""

from conftest import run_once, run_suite

from repro.bench.reporting import format_series_table
from repro.campaign.suites import figure_sweep
from repro.units import MiB


def test_fig4(benchmark):
    doc = run_once(benchmark, run_suite, "fig4-fast")
    sweep = figure_sweep(4, doc["campaigns"])
    print("\n" + format_series_table(sweep))

    # Plateau: default fastest, KNEM "almost as fast", vmsplice below,
    # I/OAT far behind while the cache still pays.
    at = 1 * MiB
    d = sweep.get("default LMT").y_at(at)
    v = sweep.get("vmsplice LMT").y_at(at)
    k = sweep.get("KNEM LMT").y_at(at)
    i = sweep.get("KNEM LMT with I/OAT").y_at(at)
    assert d >= k > v > i
    assert k > 0.9 * d

    # Tail: every CPU strategy collapses at 4 MiB; I/OAT wins.
    tail = 4 * MiB
    i_tail = sweep.get("KNEM LMT with I/OAT").y_at(tail)
    assert i_tail > sweep.get("default LMT").y_at(tail)
    assert i_tail > sweep.get("KNEM LMT").y_at(tail)
    assert i_tail > sweep.get("vmsplice LMT").y_at(tail)
