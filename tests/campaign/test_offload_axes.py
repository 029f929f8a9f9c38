"""The offload campaign workload: machine-generation axis + hash safety.

For ``offload`` trials the generation axis *replaces* the machine x
backend product (each generation pins its preset and offload mode), and
the ``machine_generation`` key must never leak into other workloads'
configs — legacy trial hashes must not move.
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
from repro.campaign.spec import MACHINE_GENERATIONS
from repro.errors import BenchmarkError
from repro.units import KiB, MiB


def _offload_spec(**overrides):
    base = dict(
        name="off",
        workload="offload",
        sizes=(4 * MiB,),
        seeds=(0,),
        noise_sigma=0.0,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def test_generation_axis_replaces_machine_backend_product():
    trials = _offload_spec().trials()
    assert len(trials) == len(MACHINE_GENERATIONS)
    rows = {
        (t.config["machine_generation"], t.config["machine"],
         t.config["backend"])
        for t in trials
    }
    assert rows == {
        ("nehalem-era", "xeon_e5345", "knem-ioat"),
        ("modern", "modern_server", "dsa"),
    }


def test_generation_key_never_leaks_into_other_workloads():
    for workload, kind in TRIAL_KINDS.items():
        if "machine_generations" in kind.axes:
            continue
        spec = CampaignSpec(
            name="t", workload=workload, sizes=(64 * KiB,),
            machine_generations=("modern",),
            noise_sigma=0.0,
        )
        for t in spec.trials():
            assert "machine_generation" not in t.config


def test_legacy_pingpong_hash_unchanged():
    """Frozen hash of a canonical pre-offload pingpong config: if this
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


def test_offload_group_label_names_the_generation():
    labels = {group_label(t.config) for t in _offload_spec().trials()}
    assert any("nehalem-era" in lb for lb in labels)
    assert any("modern" in lb and "modern_server" in lb for lb in labels)


def test_offload_spec_validation():
    with pytest.raises(BenchmarkError):
        _offload_spec(machine_generations=("pentium-pro",))
    with pytest.raises(BenchmarkError):
        _offload_spec(machine_generations=())


def test_generation_subset_is_respected():
    trials = _offload_spec(machine_generations=("modern",)).trials()
    assert len(trials) == 1
    assert trials[0].config["machine"] == "modern_server"
    assert trials[0].config["backend"] == "dsa"


def test_offload_trial_hashes_are_distinct():
    hashes = {trial_hash(t.config) for t in _offload_spec().trials()}
    assert len(hashes) == len(MACHINE_GENERATIONS)


def test_run_trial_executes_offload_config():
    spec = _offload_spec()
    trial = next(
        t for t in spec.trials()
        if t.config["machine_generation"] == "modern"
    )
    run = run_campaign(spec, cache=ResultCache.open("mem:"), trials=[trial])
    [record] = run.records
    assert record["status"] == "ok", record.get("error")
    assert record["primary"] == "offload_mib_per_s"
    m = record["metrics"]
    assert m["offload_mib_per_s"] > 0 and m["cpu_mib_per_s"] > 0
    assert m["cpu_mode"] == "knem" and m["offload_mode"] == "dsa"
    assert m["predicted_dmamin"] == 8 * MiB
    # 4 MiB sits below the modern crossover: the CPU copy still wins.
    assert m["offload_wins"] is False
