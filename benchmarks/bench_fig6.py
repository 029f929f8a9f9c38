"""Regenerate Figure 6: KNEM synchronous vs asynchronous models."""

from conftest import run_once, run_suite

from repro.bench.reporting import format_series_table
from repro.campaign.suites import figure_sweep
from repro.units import MiB


def test_fig6(benchmark):
    doc = run_once(benchmark, run_suite, "fig6-fast")
    sweep = figure_sweep(6, doc["campaigns"])
    print("\n" + format_series_table(sweep))

    at = 1 * MiB
    sync = sweep.get("KNEM LMT - synchronous").y_at(at)
    async_ = sweep.get("KNEM LMT - asynchronous").y_at(at)
    sync_ioat = sweep.get("KNEM LMT - synchronous with I/OAT").y_at(at)
    async_ioat = sweep.get("KNEM LMT - asynchronous with I/OAT").y_at(at)

    # Kernel-thread offload *reduces* throughput (core competition)...
    assert async_ < 0.75 * sync
    # ...but the I/OAT model is not hurt by asynchrony (hardware copies).
    assert async_ioat > 0.93 * sync_ioat
