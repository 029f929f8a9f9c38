"""The nhood campaign workload: pattern/strategy axes + hash safety.

The new axes must multiply the cross-product only for ``nhood`` trials
and never leak their keys into other workloads' configs — legacy trial
hashes (and the committed baseline documents keyed on them) must not
move.
"""

import pytest

from repro.campaign import (
    TRIAL_KINDS,
    CampaignSpec,
    ResultCache,
    group_label,
    run_campaign,
    trial_hash,
)
from repro.errors import BenchmarkError
from repro.units import KiB


def _nhood_spec(**overrides):
    base = dict(
        name="nh",
        workload="nhood",
        backends=("knem",),
        sizes=(128,),
        nnodes=(2,),
        patterns=("irregular", "stencil2d"),
        strategies=("direct", "node-aware"),
        seeds=(0,),
        noise_sigma=0.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def test_nhood_axes_multiply_the_product():
    trials = _nhood_spec().trials()
    assert len(trials) == 2 * 2  # patterns x strategies
    keys = {(t.config["pattern"], t.config["strategy"]) for t in trials}
    assert keys == {
        ("irregular", "direct"),
        ("irregular", "node-aware"),
        ("stencil2d", "direct"),
        ("stencil2d", "node-aware"),
    }


def test_nhood_axes_never_leak_into_other_workloads():
    for workload, kind in TRIAL_KINDS.items():
        if "patterns" in kind.axes:
            continue
        spec = CampaignSpec(
            name="t", workload=workload, sizes=(64 * KiB,),
            patterns=("irregular",), strategies=("node-aware",),
            noise_sigma=0.0,
        )
        for t in spec.trials():
            assert "pattern" not in t.config
            assert "strategy" not in t.config


def test_legacy_pingpong_hash_unchanged():
    """Frozen hash of a canonical pre-nhood pingpong config: if this
    moves, every committed campaign baseline silently invalidates."""
    config = {
        "workload": "pingpong",
        "machine": "xeon_e5345",
        "backend": "default",
        "size": 65536,
        "nnodes": 1,
        "pair": [0, 1],
        "drop": 0.0,
        "tuning": "default",
        "seed": 0,
        "reps": 2,
        "procs_per_node": 2,
        "noise_sigma": 0.02,
        "max_events": 20000000,
        "max_sim_time": 60.0,
    }
    assert CampaignSpec(name="t", sizes=(64 * KiB,)).trials()[0].config == config
    assert trial_hash(config) == (
        "579bdb64fde506b68f536d406002587fb57781ff01712bcfe4fbb9070f7dce14"
    )


def test_nhood_group_label_names_pattern_and_strategy():
    label = group_label(_nhood_spec().trials()[0].config)
    assert "irregular" in label and "direct" in label


def test_nhood_spec_validation():
    with pytest.raises(BenchmarkError):
        _nhood_spec(patterns=("torus",))
    with pytest.raises(BenchmarkError):
        _nhood_spec(strategies=("magic",))
    with pytest.raises(BenchmarkError):
        _nhood_spec(patterns=())


def test_run_trial_executes_nhood_config():
    spec = _nhood_spec()
    trial = next(
        t for t in spec.trials()
        if t.config["strategy"] == "node-aware"
        and t.config["pattern"] == "irregular"
    )
    run = run_campaign(spec, cache=ResultCache.open("mem:"), trials=[trial])
    [record] = run.records
    assert record["status"] == "ok", record["error"]
    assert record["primary"] == "seconds"
    m = record["metrics"]
    assert m["seconds"] > 0
    assert m["internode_msgs"] > 0
    assert m["internode_msgs_saved"] > 0
