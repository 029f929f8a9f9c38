"""Campaign execution: pool, cache hits, isolation, watchdog."""

import pytest

from repro.campaign import CampaignSpec, ResultCache, Trial, run_campaign
from repro.units import KiB

SPEC = CampaignSpec(
    name="exec",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)


def test_serial_run_produces_ordered_ok_records():
    run = run_campaign(SPEC)
    assert len(run.records) == 4
    assert [r["hash"] for r in run.records] == [t.hash for t in run.trials]
    assert all(r["status"] == "ok" for r in run.records)
    assert all(not r["cached"] for r in run.records)
    assert run.executed == 4 and run.cache_hits == 0
    for record in run.records:
        assert record["seed"] == record["config"]["seed"]
        assert record["primary"] == "mib_per_s"
        assert record["metrics"]["mib_per_s"] > 0


def test_pool_matches_serial_results():
    serial = run_campaign(SPEC)
    pooled = run_campaign(SPEC, workers=2)
    assert pooled.records == serial.records


def test_cache_hit_skips_execution(tmp_path):
    cache = ResultCache.open(tmp_path)
    first = run_campaign(SPEC, cache=cache)
    assert first.executed == 4
    again = run_campaign(SPEC, cache=cache)
    assert again.executed == 0
    assert again.cache_hits == len(again.records) == 4
    assert all(r["cached"] for r in again.records)
    # Cached metrics are byte-identical to the originals.
    assert [r["metrics"] for r in again.records] == [
        r["metrics"] for r in first.records
    ]


def test_resume_after_interrupt_runs_only_the_missing(tmp_path):
    cache = ResultCache.open(tmp_path)
    trials = SPEC.trials()
    # Simulate an interrupted campaign: half the results landed, one
    # tmp file was torn mid-write, one record is corrupt on disk.
    partial = run_campaign(SPEC, cache=cache, trials=trials[:2])
    assert partial.executed == 2
    cache.path(trials[2].hash).with_suffix(".tmp").write_text('{"half": ')
    cache.path(trials[1].hash).write_text('{"torn": ')
    resumed = run_campaign(SPEC, cache=cache)
    assert resumed.cache_hits == 1  # only trials[0] survived intact
    assert resumed.executed == 3
    assert all(r["status"] == "ok" for r in resumed.records)
    # And now everything is cached.
    assert run_campaign(SPEC, cache=cache).cache_hits == 4


def test_worker_failure_isolates_to_one_trial(tmp_path):
    good = SPEC.trials()[0]
    bad = Trial(config={**good.config, "pair": [0, 99]})  # no such core
    cache = ResultCache.open(tmp_path)
    run = run_campaign(SPEC, cache=cache, trials=[good, bad], workers=2)
    ok, failed = run.records
    assert ok["status"] == "ok"
    assert failed["status"] == "failed"
    assert "MpiError" in failed["error"]
    assert run.failures == [failed]
    # Failures are never cached: a resume retries exactly the broken one.
    assert bad.hash not in cache
    assert good.hash in cache
    retry = run_campaign(SPEC, cache=cache, trials=[good, bad])
    assert retry.cache_hits == 1 and retry.executed == 1


def test_pool_worker_death_is_contained_to_one_trial(tmp_path, monkeypatch):
    """A SIGKILLed pool worker (OOM, segfault) must cost one trial, not
    the campaign: the broken pool is detected, survivors re-verify in
    isolation, and the dead trial gets a failed record."""
    from repro.campaign.executor import POOL_KILL_ENV

    trials = SPEC.trials()
    victim = trials[1]
    monkeypatch.setenv(POOL_KILL_ENV, victim.hash[:12])
    cache = ResultCache.open(tmp_path)
    run = run_campaign(SPEC, cache=cache, workers=2)
    assert [r["hash"] for r in run.records] == [t.hash for t in trials]
    dead = run.record_for(seed=victim.config["seed"],
                          backend=victim.config["backend"])
    assert dead["status"] == "failed"
    assert "WorkerDeath" in dead["error"]
    survivors = [r for r in run.records if r["hash"] != victim.hash]
    assert all(r["status"] == "ok" for r in survivors)
    # Deaths are never cached: a clean resume re-runs exactly the victim.
    monkeypatch.delenv(POOL_KILL_ENV)
    retry = run_campaign(SPEC, cache=cache, workers=2)
    assert retry.cache_hits == 3 and retry.executed == 1
    assert all(r["status"] == "ok" for r in retry.records)


def test_campaigns_share_one_pool_and_run_a_shared_config_once(monkeypatch):
    """``run_campaigns`` puts every uncached trial of its specs on one
    pool; a config two specs hold executes once and fills both."""
    import repro.campaign.executor as executor

    pools = []
    pool_run = executor._pool_run

    def counting(jobs, workers):
        pools.append(len(jobs))
        return pool_run(jobs, workers)

    monkeypatch.setattr(executor, "_pool_run", counting)
    a = CampaignSpec(name="a", sizes=(4 * KiB,), seeds=(0, 1), reps=1)
    b = CampaignSpec(name="b", sizes=(4 * KiB, 16 * KiB), seeds=(1,), reps=1)
    cache = ResultCache.open("mem:")
    runs = executor.run_campaigns([a, b], cache=cache, workers=2)
    assert pools == [3]  # b's 4 KiB trial is a's seed-1 trial
    assert len(cache) == 3
    assert [r.document() for r in runs] == [
        run_campaign(spec).document() for spec in (a, b)
    ]


def test_pool_kill_env_never_fires_in_the_orchestrator(monkeypatch):
    """The kill hook only bites inside multiprocessing children."""
    from repro.campaign.executor import POOL_KILL_ENV, pool_kill_armed

    config = SPEC.trials()[0].config
    monkeypatch.setenv(POOL_KILL_ENV, SPEC.trials()[0].hash[:12])
    assert not pool_kill_armed(config)  # we are the parent process
    serial = run_campaign(SPEC, trials=SPEC.trials()[:1])  # workers=0 path
    assert serial.records[0]["status"] == "ok"


def test_watchdog_budget_turns_livelock_into_failed_trial():
    starved = Trial(config={**SPEC.trials()[0].config, "max_events": 10})
    run = run_campaign(SPEC, trials=[starved])
    (record,) = run.records
    assert record["status"] == "failed"
    assert "LivelockError" in record["error"]


def test_stale_cache_config_mismatch_reexecutes(tmp_path):
    """A hash collision or hand-edited record must not be served."""
    cache = ResultCache.open(tmp_path)
    trial = SPEC.trials()[0]
    cache.put(trial.hash, {
        "hash": trial.hash,
        "config": {"workload": "other"},
        "status": "ok",
        "metrics": {},
    })
    run = run_campaign(SPEC, cache=cache, trials=[trial])
    assert run.executed == 1
    assert run.records[0]["config"] == trial.config


def test_fault_axis_records_resilience_counters():
    spec = CampaignSpec(
        name="faulty",
        sizes=(64 * KiB,),
        nnodes=(2,),
        drops=(0.1,),
        seeds=(7,),
        noise_sigma=0.0,
    )
    run = run_campaign(spec)
    metrics = run.metrics_for(drop=0.1)
    assert metrics["retransmits"] > 0
    assert metrics["drops_injected"] > 0
    assert metrics["retries_exhausted"] == 0


def test_trace_dir_writes_per_trial_traces(tmp_path):
    spec = CampaignSpec(
        name="traced", sizes=(64 * KiB,), seeds=(0,),
        trace_dir=str(tmp_path / "traces"),
    )
    run = run_campaign(spec)
    (trial,) = run.trials
    trace = tmp_path / "traces" / f"{trial.hash}.trace.json"
    assert trace.exists()
    # The trace path is an output option, not part of the identity.
    untraced = CampaignSpec(name="traced", sizes=(64 * KiB,), seeds=(0,))
    assert untraced.trials()[0].hash == trial.hash


def test_metrics_for_raises_on_failed_trial():
    bad = Trial(config={**SPEC.trials()[0].config, "pair": [0, 99]})
    run = run_campaign(SPEC, trials=[bad])
    with pytest.raises(RuntimeError, match="failed"):
        run.metrics_for(seed=0)
    with pytest.raises(KeyError):
        run.record_for(seed=12345)


# ------------------------------------------------- paper-artifact workloads
def _one(workload, **axes):
    (record,) = run_campaign(CampaignSpec(
        name="kind", workload=workload, seeds=(0,), noise_sigma=0.0, **axes
    )).records
    assert record["status"] == "ok", record["error"]
    return record


def test_imb_workloads_time_like_the_imb_kernels():
    """The trial kinds call the IMB kernels with the config's values."""
    from repro.bench.imb import imb_alltoall, imb_pingpong
    from repro.core.policy import LmtConfig
    from repro.hw.presets import xeon_e5345

    pp = _one("imb-pingpong", backends=("knem",), sizes=(256 * KiB,),
              pairs=((0, 4),), reps=3)
    want = imb_pingpong(xeon_e5345(), 256 * KiB, mode="knem", bindings=(0, 4),
                        repetitions=3)
    assert pp["primary"] == "mib_per_s"
    assert pp["metrics"] == {"mib_per_s": want.throughput_mib,
                             "one_way_seconds": want.one_way_seconds,
                             "l2_misses": want.l2_misses}
    a2a = _one("imb-alltoall", backends=("knem",), sizes=(16 * KiB,),
               procs_per_node=4, reps=2, eager_threshold=2 * KiB)
    want = imb_alltoall(xeon_e5345(), 16 * KiB, mode="knem", nprocs=4,
                        repetitions=2,
                        config=LmtConfig(mode="knem", eager_threshold=2 * KiB))
    assert a2a["metrics"]["aggregated_mib_per_s"] == want.aggregated_mib
    assert a2a["metrics"]["l2_misses"] == want.l2_misses


def test_nas_workload_caps_the_iterations():
    from repro.bench.nas import BENCHMARKS, run_nas
    from repro.hw.presets import xeon_e5345

    record = _one("nas", backends=("knem-ioat",), benchmarks=("ep.B.4",), reps=2)
    want = run_nas(BENCHMARKS["ep.B.4"], xeon_e5345(), mode="knem-ioat",
                   iterations=2)
    assert record["metrics"] == {"seconds": want.seconds,
                                 "l2_misses": want.l2_misses}


def test_negative_warmup_in_a_config_fails_the_trial_by_name():
    (trial,) = CampaignSpec(name="w", workload="imb-pingpong", seeds=(0,),
                            noise_sigma=0.0).trials()
    config = {**trial.config, "warmup": -1}
    (record,) = run_campaign(CampaignSpec(), trials=[Trial(config)]).records
    assert record["status"] == "failed"
    assert record["error"] == "BenchmarkError: warmup must be >= 0, got -1"
