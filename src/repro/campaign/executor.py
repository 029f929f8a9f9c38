"""Run a campaign's trials: worker pool, isolation, cache, watchdog.

Trials execute through a :mod:`multiprocessing` pool (``workers > 1``)
or serially in-process (``workers <= 1``).  Either way:

* **deterministic order** — records report in spec-expansion order
  whatever order the pool finishes them in, so two runs of the same
  spec produce byte-identical documents;
* **process isolation** — each pooled trial runs in a worker process,
  so a crash (or a leaked global) cannot poison its siblings;
* **failure containment** — each trial's execution converts any exception
  into a ``status: "failed"`` record; one broken trial never aborts
  the campaign;
* **worker-death containment** — a pool worker that dies outright
  (SIGKILL, OOM, interpreter abort) breaks the pool, not the
  campaign: collateral trials re-run in a fresh pool and the trial
  that actually killed its worker is convicted by an isolation retry
  and recorded as ``status: "failed"``;
* **watchdog timeouts** — every simulated run of every trial kind
  carries the trial's ``max_events`` / ``max_sim_time`` budgets, so a
  livelocked trial fails with :class:`repro.errors.LivelockError`
  instead of hanging the pool;
* **cache** — hashes already present in the :class:`ResultCache` are
  served as hits and executed zero times; every successful record is
  stored as soon as it arrives, so a killed campaign keeps what had
  finished and its resume executes only the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.spec import TRIAL_KINDS, CampaignSpec, Trial, trial_hash
from repro.campaign.stats import aggregate

__all__ = [
    "run_campaign",
    "run_campaigns",
    "CampaignRun",
    "DOCUMENT_VERSION",
    "POOL_KILL_ENV",
    "pool_kill_armed",
]

DOCUMENT_VERSION = 1

#: Env var arming the worker kill hook: a comma list of trial-hash
#: prefixes; a worker process whose trial matches SIGKILLs itself
#: before executing.  Only honoured inside a child process (never the
#: caller), which is what lets tests and the CI smoke crash pool
#: workers without touching the orchestrator.
POOL_KILL_ENV = "REPRO_CHAOS_KILL"


def pool_kill_armed(config: dict) -> bool:
    """Worker kill hook: should this child die before this trial?

    Reads :data:`POOL_KILL_ENV` (hash prefixes) and fires only when
    running inside a :mod:`multiprocessing` child — the orchestrating
    process never self-kills, no matter what the env says.
    """
    prefixes = os.environ.get(POOL_KILL_ENV, "")
    if not prefixes:
        return False
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return False
    h = trial_hash(config)
    return any(h.startswith(p) for p in prefixes.split(",") if p)


# ---------------------------------------------------------------- execution
def _obs(key: str, trace_dir: Optional[str]):
    """The trial's observability argument: ``None`` (inert), or one
    :class:`~repro.obs.spans.ObsCollector` recording spans into a
    Chrome trace per trial under ``trace_dir``, named by the trial's
    hash ``key``."""
    if trace_dir is None:
        return None
    from repro.obs import ObsConfig
    from repro.obs.spans import ObsCollector

    root = Path(trace_dir)
    root.mkdir(parents=True, exist_ok=True)
    chrome_path = str(root / f"{key}.trace.json")
    return ObsCollector(config=ObsConfig(spans=True, chrome_path=chrome_path))


def _record(config: dict, key: str, status: str = "ok",
            error: Optional[str] = None) -> dict:
    """A trial record without metrics, keys in document order."""
    return {"hash": key, "config": config, "seed": config.get("seed"),
            "status": status, "primary": None, "metrics": None, "error": error}


def _execute(config: dict, key: str, trace_dir: Optional[str]) -> dict:
    """Execute the trial ``config`` whose hash is ``key``; never raises.

    Returns the trial record: ``{"hash", "config", "seed", "status",
    "primary", "metrics", "error"}`` with ``status`` of ``"ok"`` or
    ``"failed"``.  Module-level and dict-in/dict-out so that it is
    picklable for the worker pool.
    """
    record = _record(config, key)
    try:
        if pool_kill_armed(config):  # injected worker death
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        runner = TRIAL_KINDS[config["workload"]].runner
        metrics = runner(config, _obs(key, trace_dir))
        record["primary"] = metrics.pop("primary")
        record["metrics"] = metrics
    except Exception as exc:  # one broken trial must never kill the run
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


@dataclass
class CampaignRun:
    """Outcome of :func:`run_campaign`: trials + ordered records."""

    spec: CampaignSpec
    trials: list[Trial]
    records: list[dict]

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records if not r["cached"])

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r["cached"])

    @property
    def failures(self) -> list[dict]:
        return [r for r in self.records if r["status"] == "failed"]

    def record_for(self, **config_items) -> dict:
        """The first record whose config contains all given items."""
        for record in self.records:
            cfg = record["config"]
            if all(cfg.get(k) == v for k, v in config_items.items()):
                return record
        raise KeyError(f"no trial matching {config_items}")

    def metrics_for(self, **config_items) -> dict:
        record = self.record_for(**config_items)
        if record["status"] != "ok":
            raise RuntimeError(
                f"trial {record['hash'][:12]} failed: {record['error']}"
            )
        return record["metrics"]

    def document(self) -> dict:
        """The campaign JSON (``BENCH_campaign.json`` shape).

        ``quarantined`` is always empty: version-1 documents keep the
        field so that they stay byte-identical."""
        total = len(self.records)
        return {
            "version": DOCUMENT_VERSION,
            "kind": "campaign",
            "name": self.spec.name,
            "spec": self.spec.to_dict(),
            "seeds": [int(s) for s in self.spec.seeds],
            "summary": {
                "trials": total,
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "failures": len(self.failures),
                "quarantined": 0,
            },
            "quarantined": [],
            "aggregates": aggregate(self.records),
            "trials": self.records,
        }

    def describe(self) -> str:
        total = len(self.records)
        hits = self.cache_hits
        pct = 100.0 * hits / total if total else 0.0
        return (
            f"campaign {self.spec.name!r}: {total} trials | "
            f"executed {self.executed} | cache hits: {hits}/{total} "
            f"({pct:.1f}%) | failures {len(self.failures)}"
        )


def _death_record(config: dict, key: str) -> dict:
    """The failed record for a trial whose pool worker died outright."""
    return _record(config, key, "failed", "WorkerDeath: pool worker died "
                   "executing this trial (SIGKILL/OOM/interpreter abort)")


def _exit_with_orchestrator(pid: int) -> None:
    """Pool-worker initializer: end this worker once process ``pid``,
    the orchestrator, is gone.

    A worker blocks on the pool's queues and never notices its parent
    die, so a SIGKILLed ``campaign run`` would leave its workers
    running, re-parented, for good.  The pool forks its workers from
    the orchestrator (the default start method on Linux), so a daemon
    thread polls the parent PID and exits the worker once it is no
    longer ``pid``.
    """
    import threading
    import time

    def watch():
        while os.getppid() == pid:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, name="orchestrator-watch", daemon=True).start()


def _pool_run(
    jobs: list[tuple[dict, str, Optional[str]]], workers: int
) -> Iterator[tuple[int, dict]]:
    """Yield ``(index, record)`` for ``jobs`` as pool workers finish them.

    ``jobs`` are :func:`_execute` arguments.  A dead worker makes
    *every* unfinished future raise :class:`BrokenProcessPool` without
    saying which trial killed it, so each suspect is retried alone in a
    single-worker pool, in job order, after the pool drains: collateral
    trials succeed there, and a pool that breaks again convicts its
    only occupant, which becomes a ``status: "failed"`` record instead
    of an exception out of :func:`run_campaign`.
    """
    # Imported here: a serial run never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    watch = {"initializer": _exit_with_orchestrator, "initargs": (os.getpid(),)}
    suspects: list[int] = []
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs)), **watch) as pool:
        futures = {pool.submit(_execute, *job): i for i, job in enumerate(jobs)}
        for future in as_completed(futures):
            try:
                record = future.result()
            except BrokenProcessPool:
                suspects.append(futures[future])
            else:
                yield futures[future], record
    for i in sorted(suspects):
        config, key, _ = jobs[i]
        try:
            with ProcessPoolExecutor(max_workers=1, **watch) as solo:
                record = solo.submit(_execute, *jobs[i]).result()
        except BrokenProcessPool:
            record = _death_record(config, key)
        yield i, record


def _run(
    campaigns: list[tuple[CampaignSpec, list[Trial]]],
    cache: Optional[ResultCache],
    workers: int,
) -> list[CampaignRun]:
    """Run ``(spec, trials)`` campaigns on one pool.

    Every trial is served from ``cache`` or executed; a config that
    several campaigns hold executes once.
    """
    records: list[list[Optional[dict]]] = []
    jobs: list[tuple[dict, str, Optional[str]]] = []
    slots: dict[str, list[tuple[int, int]]] = {}  # hash -> (campaign, trial)
    for c, (spec, trials) in enumerate(campaigns):
        records.append([])
        for i, trial in enumerate(trials):
            record = cache.serve(trial) if cache is not None else None
            records[c].append(record)
            if record is None:
                if trial.hash not in slots:
                    jobs.append((trial.config, trial.hash, spec.trace_dir))
                slots.setdefault(trial.hash, []).append((c, i))
    if workers > 1 and len(jobs) > 1:
        fresh = _pool_run(jobs, workers)
    else:
        fresh = ((j, _execute(*job)) for j, job in enumerate(jobs))
    # Each record is stored the moment it arrives, so a campaign killed
    # partway keeps every trial that finished before the kill, and its
    # resume runs only the rest.
    for j, record in fresh:
        key = jobs[j][1]
        if cache is not None and record["status"] == "ok":
            cache.put(key, record)
        for c, i in slots[key]:
            records[c][i] = {**record, "cached": False}
    return [
        CampaignRun(spec=spec, trials=trials, records=recs)
        for (spec, trials), recs in zip(campaigns, records)
    ]


def run_campaign(
    spec: CampaignSpec,
    cache: Optional[ResultCache] = None,
    workers: int = 0,
    trials: Optional[Sequence[Trial]] = None,
) -> CampaignRun:
    """Expand ``spec`` and execute every trial not already cached.

    ``workers > 1`` fans the uncached trials over a multiprocessing
    pool; otherwise they run serially in-process.  ``trials`` overrides
    the spec expansion (used by tests and partial re-runs).  Cached
    failures are never served — a failed trial always re-executes.
    """
    trials = list(trials) if trials is not None else spec.trials()
    (run,) = _run([(spec, trials)], cache, workers)
    return run


def run_campaigns(
    specs: Sequence[CampaignSpec],
    cache: Optional[ResultCache] = None,
    workers: int = 0,
) -> list[CampaignRun]:
    """:func:`run_campaign` of each of ``specs``, with the uncached
    trials of them all on one pool, so ``workers`` stay busy across
    campaigns; each distinct trial config executes once."""
    return _run([(s, s.trials()) for s in specs], cache, workers)
