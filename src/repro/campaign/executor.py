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
* **watchdog timeouts** — every simulated run carries the trial's
  ``max_events`` / ``max_sim_time`` budgets, so a livelocked trial
  fails with :class:`repro.errors.LivelockError` instead of hanging
  the pool;
* **cache** — hashes already present in the :class:`ResultCache` are
  served as hits and executed zero times; every successful record is
  stored as soon as it arrives, so a killed campaign keeps what had
  finished and its resume executes only the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, Trial, trial_hash
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


# --------------------------------------------------------------- workloads
def _topo(name: str):
    from repro.hw import presets

    try:
        return getattr(presets, name)()
    except AttributeError:
        raise ValueError(f"unknown machine preset {name!r}") from None


def _noise(config: dict):
    """The trial's noise model: explicitly seeded from the config."""
    if config["noise_sigma"] <= 0:
        return None
    from repro.sim.noise import NoiseModel

    return NoiseModel(seed=config["seed"], sigma=config["noise_sigma"])


def _faults(config: dict):
    """The trial's fault plan: same explicit seed as the noise stream."""
    if config["drop"] <= 0:
        return None
    from repro.faults import FaultPlan

    return FaultPlan(seed=config["seed"], drop=config["drop"])


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


def _pingpong_main(nbytes: int, reps: int, warmup: int = 1):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        status = None
        start = None
        for rep in range(warmup + reps):
            if rep == warmup:  # earlier reps warm caches and rendezvous state
                start = ctx.now
            if ctx.rank == 0:
                yield comm.Send(buf, dest=peer, tag=rep)
                yield comm.Recv(buf, source=peer, tag=rep)
            else:
                status = yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep)
        if ctx.rank == 0:
            return (ctx.now - start) / (2 * reps)
        return getattr(status, "path", None)

    return main


def _run_pingpong(config: dict, obs) -> dict:
    from repro.units import mib_per_s

    nbytes = config["size"]
    main = _pingpong_main(nbytes, config["reps"])
    common = dict(
        mode=config["backend"],
        noise=_noise(config),
        faults=_faults(config),
        obs=obs,
        max_events=config["max_events"],
        max_sim_time=config["max_sim_time"],
    )
    if config["nnodes"] == 1:
        from repro.mpi.world import run_mpi

        result = run_mpi(
            _topo(config["machine"]), 2, main,
            bindings=list(config["pair"]), **common,
        )
    else:
        from repro.hw.presets import cluster_of
        from repro.mpi.cluster import run_cluster

        spec = cluster_of(_topo(config["machine"]), config["nnodes"])
        result = run_cluster(
            spec, 2, main, bindings=[(0, config["pair"][0]),
                                     (1, config["pair"][1])], **common,
        )
    one_way = result.results[0]
    metrics = {
        "one_way_seconds": one_way,
        "mib_per_s": mib_per_s(nbytes, one_way),
        "path": result.results[1],
        "elapsed": result.elapsed,
    }
    if config["nnodes"] > 1:
        fabric = result.fabric
        metrics["retransmits"] = sum(n.retransmits for n in fabric.nics)
        metrics["retries_exhausted"] = sum(
            n.retries_exhausted for n in fabric.nics
        )
        if fabric.faults is not None:
            metrics["drops_injected"] = fabric.faults.counters()[
                "drops_injected"
            ]
    return {"primary": "mib_per_s", **metrics}


def _run_allreduce(config: dict, obs) -> dict:
    from repro.hw.presets import cluster_of
    from repro.mpi.cluster import run_cluster
    from repro.mpi.coll.tuning import CollTuning

    nbytes = config["size"]
    reps = config["reps"]

    def main(ctx):
        from repro.mpi.coll.reduce import allreduce

        a = ctx.alloc(nbytes)
        b = ctx.alloc(nbytes)
        a.data[:] = ctx.rank + 1
        yield from allreduce(ctx.comm, a, b)  # warm scratch + caches
        t0 = ctx.now
        for _ in range(reps):
            yield from allreduce(ctx.comm, a, b)
        return (ctx.now - t0) / reps

    tuning = None
    if config["tuning"] == "flat":
        tuning = CollTuning(hier_allreduce_min=1 << 40)
    nnodes = config["nnodes"]
    ppn = config["procs_per_node"]
    spec = cluster_of(_topo(config["machine"]), nnodes)
    result = run_cluster(
        spec, nnodes * ppn, main,
        procs_per_node=ppn,
        mode=config["backend"],
        coll_tuning=tuning,
        noise=_noise(config),
        faults=_faults(config),
        obs=obs,
        max_events=config["max_events"],
        max_sim_time=config["max_sim_time"],
    )
    seconds = max(result.results)
    return {
        "primary": "seconds",
        "seconds": seconds,
        "elapsed": result.elapsed,
    }


def _run_crossover(config: dict, obs) -> dict:
    from repro.core.autotune import find_ioat_crossover

    res = find_ioat_crossover(
        _topo(config["machine"]), tuple(config["pair"]),
        sizes=config["sizes"], repetitions=config["reps"],
    )
    return {
        "primary": "crossover_bytes",
        "crossover_bytes": res.measured_crossover,
        "predicted_dmamin": res.predicted_dmamin,
        "shares_cache": res.shares_cache,
        "knem_mib_per_s": list(res.knem_mib),
        "ioat_mib_per_s": list(res.ioat_mib),
    }


def _imb_config(config: dict):
    """The LMT config of an IMB trial: its mode at its rendezvous switch."""
    from repro.core.policy import LmtConfig

    return LmtConfig(
        mode=config["backend"], eager_threshold=config["eager_threshold"]
    )


def _run_imb_pingpong(config: dict, obs) -> dict:
    """One :func:`repro.bench.imb.imb_pingpong` (Figs. 3-6, Table 2)."""
    from repro.bench.imb import imb_pingpong

    r = imb_pingpong(
        _topo(config["machine"]), config["size"], mode=config["backend"],
        bindings=tuple(config["pair"]), warmup=config["warmup"],
        repetitions=config["reps"], config=_imb_config(config),
    )
    return {
        "primary": "mib_per_s",
        "mib_per_s": r.throughput_mib,
        "one_way_seconds": r.one_way_seconds,
        "l2_misses": r.l2_misses,
    }


def _run_imb_alltoall(config: dict, obs) -> dict:
    """One :func:`repro.bench.imb.imb_alltoall` over ``procs_per_node``
    ranks (Fig. 7, Table 2)."""
    from repro.bench.imb import imb_alltoall

    r = imb_alltoall(
        _topo(config["machine"]), config["size"], mode=config["backend"],
        nprocs=config["procs_per_node"], warmup=config["warmup"],
        repetitions=config["reps"], config=_imb_config(config),
    )
    return {
        "primary": "aggregated_mib_per_s",
        "aggregated_mib_per_s": r.aggregated_mib,
        "seconds_per_op": r.seconds_per_op,
        "l2_misses": r.l2_misses,
    }


def _run_nas(config: dict, obs) -> dict:
    """One :func:`repro.bench.nas.run_nas` of a class-B Table 1 kernel,
    timing at most ``reps`` iterations (Tables 1 and 2)."""
    from repro.bench.nas import BENCHMARKS, run_nas

    spec = BENCHMARKS[config["benchmark"]]
    r = run_nas(
        spec, _topo(config["machine"]), mode=config["backend"],
        iterations=min(spec.iterations, config["reps"]), obs=obs,
    )
    return {"primary": "seconds", "seconds": r.seconds, "l2_misses": r.l2_misses}


def _run_sched(config: dict, obs) -> dict:
    from repro.sched import Scheduler, mix_jobs

    sched = Scheduler(
        _topo(config["machine"]),
        policy=config["sched_policy"],
        obs=obs,
        max_events=config["max_events"],
        max_sim_time=config["max_sim_time"],
    )
    jobs = mix_jobs(
        config["job_mix"],
        size=config["size"],
        mode=config["backend"],
        seed=config["seed"],
        reps=config["reps"],
    )
    result = sched.run(jobs)
    slowdowns = [jr.slowdown for jr in result.jobs if jr.slowdown is not None]
    waits = [jr.wait_seconds for jr in result.jobs]
    return {
        "primary": "makespan_seconds",
        "makespan_seconds": result.makespan,
        "cross_job_l2_evictions": result.cross_job_evictions,
        "max_slowdown": max(slowdowns) if slowdowns else 1.0,
        "mean_wait_seconds": sum(waits) / len(waits),
        "ctx_switch_seconds": result.ctx_switch_seconds,
        "jobs": {
            jr.spec.name: {
                "slowdown": jr.slowdown,
                "isolated_seconds": jr.isolated_seconds,
                "seconds": jr.duration,
                "wait_seconds": jr.wait_seconds,
                "l2_lines_evicted_by_others":
                    jr.interference["l2_lines_evicted_by_others"],
                "l2_lines_evicted_from_others":
                    jr.interference["l2_lines_evicted_from_others"],
                "bindings": list(jr.bindings),
            }
            for jr in result.jobs
        },
        "elapsed": result.makespan,
    }


def _run_nhood(config: dict, obs) -> dict:
    from repro.hw.presets import cluster_of
    from repro.mpi.cluster import run_cluster
    from repro.nhood import build_pattern, neighbor_alltoallv

    nnodes = config["nnodes"]
    ppn = config["procs_per_node"]
    p = nnodes * ppn
    # The campaign "size" axis is the per-edge halo byte count here.
    kwargs = {}
    if config["pattern"] == "irregular":
        kwargs = {"seed": config["seed"], "degree": min(config["degree"], p - 1)}
    cg = build_pattern(config["pattern"], p, config["size"], **kwargs)

    def main(ctx):
        g = cg.graph_of(ctx.rank)
        send = ctx.alloc(max(g.send_bytes, 1), name="nh.s")
        recv = ctx.alloc(max(g.recv_bytes, 1), name="nh.r")
        for _ in range(config["reps"]):
            yield neighbor_alltoallv(
                ctx.comm, cg, send, recv, strategy=config["strategy"]
            )
        return ctx.now

    result = run_cluster(
        cluster_of(_topo(config["machine"]), nnodes),
        p,
        main,
        procs_per_node=ppn,
        mode=config["backend"],
        noise=_noise(config),
        faults=_faults(config),
        obs=obs,
        max_events=config["max_events"],
        max_sim_time=config["max_sim_time"],
    )
    m = result.obs.metrics
    counters = (
        "internode_msgs", "internode_bytes", "intranode_msgs",
        "intranode_bytes", "internode_msgs_saved", "pack_bytes",
    )
    return {
        "primary": "seconds",
        "seconds": result.elapsed,
        **{c: int(m.counter(f"nhood.{c}").value) for c in counters},
        "leader_footprint_bytes": int(
            m.gauge("nhood.leader_footprint_bytes").value
        ),
        "elapsed": result.elapsed,
    }


def _run_offload(config: dict, obs) -> dict:
    """One offload trial: CPU copy vs the generation's offload engine
    at the trial's message size, shared-cache placement (cores 0 and
    1), pin-down cache armed.  Each side is timed like
    :func:`repro.bench.imb.imb_pingpong`: two warm-up round trips,
    then ``reps`` timed ones."""
    from repro.campaign.spec import GENERATIONS
    from repro.core.policy import LmtConfig
    from repro.mpi.world import run_mpi
    from repro.units import mib_per_s

    gen = next(
        g for g in GENERATIONS
        if g["generation"] == config["machine_generation"]
    )
    topo = _topo(gen["machine"])
    nbytes = config["size"]
    rates = {}
    for key, mode in (("cpu", gen["cpu_mode"]), ("offload", gen["offload_mode"])):
        main = _pingpong_main(nbytes, config["reps"], warmup=2)
        result = run_mpi(
            topo, 2, main,
            bindings=[0, 1],
            mode=mode,
            # The pin-down cache amortizes the reused buffers' pins, so
            # the comparison prices steady-state data movement.
            config=LmtConfig(mode=mode, knem_reg_cache=True),
            noise=_noise(config),
            max_events=config["max_events"],
            max_sim_time=config["max_sim_time"],
        )
        rates[key] = mib_per_s(nbytes, result.results[0])
    return {
        "primary": "offload_mib_per_s",
        "offload_mib_per_s": rates["offload"],
        "cpu_mib_per_s": rates["cpu"],
        "cpu_mode": gen["cpu_mode"],
        "offload_mode": gen["offload_mode"],
        "offload_wins": rates["offload"] > rates["cpu"],
        "predicted_dmamin": topo.dmamin_bytes(2),
    }


_WORKLOAD_FNS: dict[str, Callable[[dict, object], dict]] = {
    "pingpong": _run_pingpong,
    "allreduce": _run_allreduce,
    "crossover": _run_crossover,
    "sched": _run_sched,
    "nhood": _run_nhood,
    "offload": _run_offload,
    "imb-pingpong": _run_imb_pingpong,
    "imb-alltoall": _run_imb_alltoall,
    "nas": _run_nas,
}


# ---------------------------------------------------------------- execution
def _execute(config: dict, key: str, trace_dir: Optional[str]) -> dict:
    """Execute the trial ``config`` whose hash is ``key``; never raises.

    Returns the trial record: ``{"hash", "config", "seed", "status",
    "primary", "metrics", "error"}`` with ``status`` of ``"ok"`` or
    ``"failed"``.  Module-level and dict-in/dict-out so that it is
    picklable for the worker pool.
    """
    record = {
        "hash": key,
        "config": config,
        "seed": config.get("seed"),
        "status": "ok",
        "primary": None,
        "metrics": None,
        "error": None,
    }
    try:
        if pool_kill_armed(config):  # injected worker death
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        fn = _WORKLOAD_FNS[config["workload"]]
        metrics = fn(config, _obs(key, trace_dir))
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
    return {
        "hash": key,
        "config": config,
        "seed": config.get("seed"),
        "status": "failed",
        "primary": None,
        "metrics": None,
        "error": "WorkerDeath: pool worker died executing this trial "
        "(SIGKILL/OOM/interpreter abort)",
    }


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
    campaigns: list[tuple[CampaignSpec, list[Trial], Optional[str]]],
    cache: Optional[ResultCache],
    workers: int,
) -> list[CampaignRun]:
    """Run ``(spec, trials, trace_dir)`` campaigns on one pool.

    Every trial is served from ``cache`` or executed; a config that
    several campaigns hold executes once.
    """
    records: list[list[Optional[dict]]] = []
    jobs: list[tuple[dict, str, Optional[str]]] = []
    slots: dict[str, list[tuple[int, int]]] = {}  # hash -> (campaign, trial)
    for c, (_, trials, trace_dir) in enumerate(campaigns):
        records.append([])
        for i, trial in enumerate(trials):
            record = cache.serve(trial) if cache is not None else None
            records[c].append(record)
            if record is None:
                if trial.hash not in slots:
                    jobs.append((trial.config, trial.hash, trace_dir))
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
        for (spec, trials, _), recs in zip(campaigns, records)
    ]


def run_campaign(
    spec: CampaignSpec,
    cache: Optional[ResultCache] = None,
    workers: int = 0,
    trials: Optional[Sequence[Trial]] = None,
    trace_dir: Optional[str] = None,
) -> CampaignRun:
    """Expand ``spec`` and execute every trial not already cached.

    ``workers > 1`` fans the uncached trials over a multiprocessing
    pool; otherwise they run serially in-process.  ``trials`` overrides
    the spec expansion (used by tests and partial re-runs).  Cached
    failures are never served — a failed trial always re-executes.
    """
    trials = list(trials) if trials is not None else spec.trials()
    trace_dir = trace_dir if trace_dir is not None else spec.trace_dir
    (run,) = _run([(spec, trials, trace_dir)], cache, workers)
    return run


def run_campaigns(
    specs: Sequence[CampaignSpec],
    cache: Optional[ResultCache] = None,
    workers: int = 0,
) -> list[CampaignRun]:
    """:func:`run_campaign` of each of ``specs``, with the uncached
    trials of them all on one pool, so ``workers`` stay busy across
    campaigns; each distinct trial config executes once."""
    return _run([(s, s.trials(), s.trace_dir) for s in specs], cache, workers)
