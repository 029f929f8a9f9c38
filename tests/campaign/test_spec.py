"""Spec expansion and content-hash stability."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    Trial,
    canonical_json,
    group_config,
    group_label,
    trial_hash,
)
from repro.errors import BenchmarkError
from repro.units import KiB, MiB


def _spec(**overrides):
    base = dict(
        name="t",
        backends=("default", "knem"),
        sizes=(64 * KiB, 1 * MiB),
        seeds=(0, 1, 2),
    )
    base.update(overrides)
    return CampaignSpec(**base)


def test_expansion_is_full_cross_product():
    trials = _spec().trials()
    assert len(trials) == 2 * 2 * 3
    # Deterministic order: backend-major over size over seed.
    assert [t.config["seed"] for t in trials[:3]] == [0, 1, 2]
    assert trials[0].config["backend"] == "default"
    assert trials[-1].config["backend"] == "knem"


def test_expansion_is_deterministic():
    a = _spec().trials()
    b = _spec().trials()
    assert [t.hash for t in a] == [t.hash for t in b]


def test_same_config_same_hash_regardless_of_key_order():
    config = _spec().trials()[0].config
    shuffled = dict(reversed(list(config.items())))
    assert trial_hash(config) == trial_hash(shuffled)
    assert canonical_json(config) == canonical_json(shuffled)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(st.text(), _JSON, max_size=6))
def test_canonical_json_is_sorted_compact_dumps(config):
    assert canonical_json(config) == json.dumps(
        config, sort_keys=True, separators=(",", ":")
    )
    assert canonical_json(config) == canonical_json(
        dict(reversed(list(config.items())))
    )


def test_axis_change_changes_hash():
    base = _spec().trials()[0].config
    for key, value in [
        ("size", 2 * MiB),
        ("backend", "knem-ioat"),
        ("machine", "xeon_x5460"),
        ("seed", 99),
        ("nnodes", 2),
        ("drop", 0.1),
        ("reps", 3),
        ("noise_sigma", 0.0),
    ]:
        changed = {**base, key: value}
        assert trial_hash(changed) != trial_hash(base), key


def test_hashes_unique_across_expansion():
    trials = _spec().trials()
    assert len({t.hash for t in trials}) == len(trials)


def test_group_strips_only_the_seed():
    t0, t1, t2 = _spec().trials()[:3]
    assert t0.group == t1.group == t2.group
    assert "seed" not in group_config(t0.config)
    assert t0.hash != t1.hash


def test_group_label_is_readable_and_stable():
    t = _spec().trials()[0]
    assert group_label(t.config) == "pingpong/xeon_e5345/default/64KiB/n1"
    lossy = {**t.config, "drop": 0.05, "tuning": "flat", "pair": [0, 4]}
    assert group_label(lossy) == (
        "pingpong/xeon_e5345/default/64KiB/n1/c0-4/drop0.05/flat"
    )


def test_spec_validation():
    with pytest.raises(BenchmarkError):
        CampaignSpec(workload="nope")
    with pytest.raises(BenchmarkError):
        CampaignSpec(machines=("atom330",))
    with pytest.raises(BenchmarkError):
        CampaignSpec(backends=("tcp",))
    with pytest.raises(BenchmarkError):
        CampaignSpec(sizes=())
    with pytest.raises(BenchmarkError):
        CampaignSpec(sizes=(0,))
    with pytest.raises(BenchmarkError):
        CampaignSpec(nnodes=(0,))
    with pytest.raises(BenchmarkError):
        CampaignSpec(tunings=("fastest",))
    with pytest.raises(BenchmarkError):
        CampaignSpec(noise_sigma=0.9)


def test_trial_describe_mentions_seed_and_hash():
    t = _spec().trials()[1]
    assert f"seed={t.seed}" in t.describe()
    assert t.short in t.describe()


def test_spec_to_dict_is_json_ready():
    import json

    doc = json.dumps(_spec().to_dict())
    assert "xeon_e5345" in doc


def test_describe_counts_trials():
    assert "12 trials" in _spec().describe()


# ------------------------------------------------------------- hash memo
_REUSE_SPECS = {
    "pingpong": dict(pairs=((0, 1), (0, 4))),
    "sched": dict(workload="sched", sched_policies=("fifo",),
                  job_mixes=("pair", "trio")),
    "nhood": dict(workload="nhood", nnodes=(2,),
                  patterns=("irregular", "stencil2d")),
    "offload": dict(workload="offload", backends=("default",)),
}


@pytest.mark.parametrize("kind", sorted(_REUSE_SPECS))
def test_reexpansion_gives_fresh_configs_and_correct_hashes(kind):
    spec = _spec(**_REUSE_SPECS[kind])
    first, second = spec.trials(), spec.trials()
    assert len(first) == len(second) > 1
    for a, b in zip(first, second):
        assert a.hash == trial_hash(a.config)
        assert b.hash == trial_hash(b.config)
        assert a.config == b.config and a is not b
        assert a.config is not b.config
        assert a.config["pair"] is not b.config["pair"]
    # Mutating one expansion's configs leaves the other's (and its
    # hashes) untouched, and a third expansion starts clean.
    before = [t.hash for t in second]
    for t in first:
        t.config["seed"] += 1000
        t.config["pair"][0] = 99
    assert [t.hash for t in second] == before
    assert [trial_hash(t.config) for t in second] == before
    assert [t.hash for t in spec.trials()] == before
    assert all(t.config["pair"][0] != 99 for t in spec.trials())


def test_trial_built_directly_hashes_its_config():
    config = _spec().trials()[0].config
    trial = Trial(config=dict(config))
    assert trial.hash == trial_hash(config)
    assert trial.short == trial.hash[:12]
    assert Trial(config={**config, "seed": 7}).hash != trial.hash


def test_each_pass_hashes_each_trial_once(monkeypatch):
    import repro.campaign.executor as executor_mod
    import repro.campaign.spec as spec_mod
    from repro.campaign import ResultCache, run_campaign

    hashed = []

    def counting(config):
        hashed.append(canonical_json(config))
        return trial_hash(config)

    monkeypatch.setattr(spec_mod, "trial_hash", counting)
    monkeypatch.setattr(executor_mod, "trial_hash", counting)
    spec = _spec(sizes=(4 * KiB,), seeds=(0, 1), reps=1, noise_sigma=0.0)
    cache = ResultCache.open("mem:")
    cold = run_campaign(spec, cache=cache)
    assert cold.executed == 4
    assert sorted(hashed) == sorted(canonical_json(t.config) for t in cold.trials)
    hashed.clear()
    warm = run_campaign(spec, cache=cache)
    assert warm.cache_hits == 4
    assert sorted(hashed) == sorted(canonical_json(t.config) for t in warm.trials)


# ------------------------------------------------------- repeated values
@pytest.mark.parametrize("axis,values,shown", [
    ("sizes", (64 * KiB, 64 * KiB), "65536"),
    ("seeds", (1, 1, 1), "1"),
    ("backends", ("knem", "default", "knem"), "'knem'"),
    ("pairs", ((0, 1), (0, 4), (0, 1)), "(0, 1)"),
    ("drops", (0.0, 0), "0"),
])
def test_repeated_axis_value_rejected(axis, values, shown):
    with pytest.raises(BenchmarkError) as exc:
        _spec(**{axis: values})
    assert str(exc.value) == f"campaign axis '{axis}' repeats {shown}"


# --------------------------------------------------------------- describe
_DESCRIBE_SPECS = {
    "pingpong": dict(pairs=((0, 1), (0, 4))),
    "allreduce": dict(workload="allreduce", nnodes=(2, 4), tunings=("default", "flat")),
    "crossover": dict(workload="crossover", machines=("xeon_e5345", "xeon_x5460")),
    "sched": dict(workload="sched", sched_policies=("fifo", "backfill", "gang"),
                  job_mixes=("pair", "trio")),
    "nhood": dict(workload="nhood", nnodes=(2,), patterns=("irregular", "stencil2d")),
    "offload": dict(workload="offload", machines=("xeon_e5345", "xeon_x5460")),
}


def test_describe_specs_cover_every_workload():
    from repro.campaign import WORKLOADS

    assert set(_DESCRIBE_SPECS) == set(WORKLOADS)


@pytest.mark.parametrize("kind", sorted(_DESCRIBE_SPECS))
def test_describe_names_the_axes_that_multiply(kind):
    """The factors shown multiply to the trial count; an axis the
    workload ignores (offload's machines and backends) is not shown."""
    import math
    import re

    spec = _spec(**_DESCRIBE_SPECS[kind])
    text = spec.describe()
    factors = re.search(r": \w+, (.*) -> (\d+) trials?$", text)
    counts = [int(n) for n in re.findall(r"(\d+) [a-z_ ]+", factors.group(1))]
    assert math.prod(counts) == int(factors.group(2)) == len(spec.trials())
    if kind == "offload":
        assert "machines" not in text and "backends" not in text
        assert "2 machine_generations" in text


def test_describe_of_a_single_trial():
    spec = CampaignSpec(name="one")
    assert spec.describe() == "campaign 'one': pingpong, 1 config -> 1 trial"


def test_describe_of_a_sched_spec():
    spec = _spec(**_DESCRIBE_SPECS["sched"])
    assert spec.describe() == (
        "campaign 't': sched, 2 backends x 2 sizes x 3 sched_policies x "
        "2 job_mixes x 3 seeds -> 72 trials"
    )


def test_workload_version_moves_only_its_own_hashes():
    """sched, nhood and offload trials hash under their own schema
    version, so results cached before their metrics changed are never
    served; pingpong keeps version 1 (the frozen-hash tests pin it)."""
    import hashlib

    def v1(config):
        payload = f"repro.campaign/v1:{canonical_json(config)}"
        return hashlib.sha256(payload.encode()).hexdigest()

    for workload, moved in [("pingpong", False), ("allreduce", False),
                            ("sched", True), ("nhood", True),
                            ("offload", True)]:
        config = CampaignSpec(workload=workload, nnodes=(2,)).trials()[0].config
        assert (trial_hash(config) != v1(config)) is moved, workload
