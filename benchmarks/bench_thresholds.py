"""Regenerate the Sec. 3.5 threshold observations.

"While looking at early performance numbers on 2.33 GHz Xeon
processors with a 4 MiB L2 cache shared between 2 cores, we observed
that KNEM should offload copies to I/OAT hardware when the size passes
1 MiB.  We ran the same test between 2 cores not sharing a cache and
observed that the threshold jumps to 2 MiB.  Running the experiment on
another host with 6 MiB L2 caches increased the threshold by 50%."

Each observation is one trial of the ``thresholds`` suite's
``crossover`` campaigns, run here one machine at a time.
"""

import dataclasses

from conftest import run_once

from repro.campaign import run_campaign
from repro.campaign.suites import SUITES
from repro.units import MiB


def _crossover(machine, pairs):
    """Run the suite's crossover campaign of ``machine`` on ``pairs``
    and index its metrics by pair."""
    (spec,) = [s for s in SUITES["thresholds"].specs if s.machines == (machine,)]
    run = run_campaign(dataclasses.replace(spec, pairs=tuple(pairs)))
    assert not run.failures, run.failures
    return {
        tuple(r["config"]["pair"]): r["metrics"] for r in run.records
    }


def test_threshold_shared_cache(benchmark):
    res = run_once(benchmark, _crossover, "xeon_e5345", [(0, 1)])[(0, 1)]
    print("\n", res)
    assert res["predicted_dmamin"] == 1 * MiB
    assert res["crossover_bytes"] is not None
    assert 0.5 <= res["crossover_bytes"] / res["predicted_dmamin"] <= 4.0


def test_threshold_no_shared_cache(benchmark):
    by_pair = run_once(benchmark, _crossover, "xeon_e5345", [(0, 1), (0, 4)])
    shared, remote = by_pair[(0, 1)], by_pair[(0, 4)]
    print("\n", remote)
    assert remote["predicted_dmamin"] == 2 * MiB
    assert remote["crossover_bytes"] is not None
    # "the threshold jumps" when no cache is shared.
    assert remote["crossover_bytes"] >= shared["crossover_bytes"]


def test_threshold_bigger_cache_scales(benchmark):
    """6 MiB caches raise the predicted threshold by 50%."""
    res = run_once(benchmark, _crossover, "xeon_x5460", [(0, 1)])[(0, 1)]
    print("\n", res)
    assert res["predicted_dmamin"] == int(1.5 * MiB)
