"""Smoke + shape tests for the figure suites (reduced sweeps).

The full-resolution assertions live in ``benchmarks/``; here each
figure's spec runs with a reduced size list, through the session
store, so the whole file stays fast.
"""

import dataclasses

from repro.bench.reporting import format_csv, format_series_table
from repro.campaign import run_campaign
from repro.campaign.suites import FIGURES, SUITES, figure_sweep
from repro.units import KiB, MiB

SIZES = (128 * KiB, 1 * MiB, 4 * MiB)


def _figure(n, suite_store, **axes):
    """Figure ``n``'s sweep with its specs' ``axes`` replaced."""
    campaigns = [
        run_campaign(dataclasses.replace(spec, **axes), cache=suite_store)
        .document()
        for spec in SUITES[f"fig{n}"].specs
    ]
    return figure_sweep(n, campaigns)


def test_all_figures_registered():
    assert sorted(FIGURES) == [3, 4, 5, 6, 7]
    for n in FIGURES:
        assert f"fig{n}" in SUITES and f"fig{n}-fast" in SUITES


def test_fig4_reduced_shape(suite_store):
    sweep = _figure(4, suite_store, sizes=SIZES)
    assert sweep.xs == list(SIZES)
    d = sweep.get("default LMT")
    k = sweep.get("KNEM LMT")
    i = sweep.get("KNEM LMT with I/OAT")
    assert d.y_at(1 * MiB) >= k.y_at(1 * MiB) > i.y_at(1 * MiB)
    assert i.y_at(4 * MiB) > d.y_at(4 * MiB)


def test_fig5_reduced_shape(suite_store):
    sweep = _figure(5, suite_store, sizes=SIZES)
    d = sweep.get("default LMT")
    v = sweep.get("vmsplice LMT")
    k = sweep.get("KNEM LMT")
    assert k.y_at(1 * MiB) > v.y_at(1 * MiB) > d.y_at(1 * MiB)


def test_fig7_default_uses_stock_eager_below_64k(suite_store):
    """The default curve's sub-64 KiB points run the eager-cell path;
    KNEM's run the LMT (the paper lowered the threshold only for the
    new backends)."""
    sweep = _figure(7, suite_store, sizes=(16 * KiB,), procs_per_node=4)
    assert sweep.get("KNEM LMT").y_at(16 * KiB) > sweep.get("default LMT").y_at(
        16 * KiB
    )


def test_figure_tables_render(suite_store):
    sweep = _figure(4, suite_store, sizes=(256 * KiB,))
    text = format_series_table(sweep)
    assert "256KiB" in text
    csv = format_csv(sweep)
    assert csv.splitlines()[0].startswith("size,")
    assert str(256 * KiB) in csv
