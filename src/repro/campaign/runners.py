"""Trial runners: one function per campaign trial kind.

Each runner takes a trial's canonical config dict and its
observability argument (``None``, or one span collector) and returns
the trial's metrics with their ``"primary"`` name.  The kind table
(:data:`repro.campaign.spec.TRIAL_KINDS`) names which config keys each
runner reads.  Every simulator import is local to its runner, so
expanding and hashing a campaign loads none of them.
"""

from __future__ import annotations


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


def _budgets(config: dict) -> dict:
    """The trial's Engine watchdog budgets, as run keywords."""
    return {
        "max_events": config["max_events"],
        "max_sim_time": config["max_sim_time"],
    }


def _pingpong_main(nbytes: int, reps: int):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        status = None
        start = None
        for rep in range(1 + reps):
            if rep == 1:  # the first rep warms caches and rendezvous state
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


def pingpong_trial(config: dict, obs) -> dict:
    from repro.units import mib_per_s

    nbytes = config["size"]
    main = _pingpong_main(nbytes, config["reps"])
    common = dict(
        mode=config["backend"],
        noise=_noise(config),
        faults=_faults(config),
        obs=obs,
        **_budgets(config),
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


def allreduce_trial(config: dict, obs) -> dict:
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
        **_budgets(config),
    )
    seconds = max(result.results)
    return {
        "primary": "seconds",
        "seconds": seconds,
        "elapsed": result.elapsed,
    }


def crossover_trial(config: dict, obs) -> dict:
    """One :func:`repro.core.autotune.find_ioat_crossover` sweep: two
    pingpongs per size, so it takes no trace (``obs`` is always None)."""
    from repro.core.autotune import find_ioat_crossover

    res = find_ioat_crossover(
        _topo(config["machine"]), tuple(config["pair"]),
        sizes=config["sizes"], repetitions=config["reps"], **_budgets(config),
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


def imb_pingpong_trial(config: dict, obs) -> dict:
    """One :func:`repro.bench.imb.imb_pingpong` (Figs. 3-6, Table 2)."""
    from repro.bench.imb import imb_pingpong

    r = imb_pingpong(
        _topo(config["machine"]), config["size"], mode=config["backend"],
        bindings=tuple(config["pair"]), warmup=config["warmup"],
        repetitions=config["reps"], config=_imb_config(config), obs=obs,
        **_budgets(config),
    )
    return {
        "primary": "mib_per_s",
        "mib_per_s": r.throughput_mib,
        "one_way_seconds": r.one_way_seconds,
        "l2_misses": r.l2_misses,
    }


def imb_alltoall_trial(config: dict, obs) -> dict:
    """One :func:`repro.bench.imb.imb_alltoall` over ``procs_per_node``
    ranks (Fig. 7, Table 2)."""
    from repro.bench.imb import imb_alltoall

    r = imb_alltoall(
        _topo(config["machine"]), config["size"], mode=config["backend"],
        nprocs=config["procs_per_node"], warmup=config["warmup"],
        repetitions=config["reps"], config=_imb_config(config), obs=obs,
        **_budgets(config),
    )
    return {
        "primary": "aggregated_mib_per_s",
        "aggregated_mib_per_s": r.aggregated_mib,
        "seconds_per_op": r.seconds_per_op,
        "l2_misses": r.l2_misses,
    }


def nas_trial(config: dict, obs) -> dict:
    """One :func:`repro.bench.nas.run_nas` of a class-B Table 1 kernel,
    timing at most ``reps`` iterations (Tables 1 and 2)."""
    from repro.bench.nas import BENCHMARKS, run_nas

    spec = BENCHMARKS[config["benchmark"]]
    r = run_nas(
        spec, _topo(config["machine"]), mode=config["backend"],
        iterations=min(spec.iterations, config["reps"]), obs=obs,
        **_budgets(config),
    )
    return {"primary": "seconds", "seconds": r.seconds, "l2_misses": r.l2_misses}


def sched_trial(config: dict, obs) -> dict:
    from repro.sched import Scheduler, mix_jobs

    sched = Scheduler(
        _topo(config["machine"]),
        policy=config["sched_policy"],
        obs=obs,
        **_budgets(config),
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


def nhood_trial(config: dict, obs) -> dict:
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
        **_budgets(config),
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


def offload_trial(config: dict, obs) -> dict:
    """One offload trial: CPU copy vs the generation's offload engine
    at the trial's message size, shared-cache placement (cores 0 and
    1), pin-down cache armed.  Each side is one
    :func:`repro.bench.imb.imb_pingpong` (two warm-up round trips, then
    ``reps`` timed ones), so the trial takes no trace (``obs`` is
    always None)."""
    from repro.bench.imb import imb_pingpong
    from repro.campaign.spec import GENERATIONS
    from repro.core.policy import LmtConfig

    gen = next(
        g for g in GENERATIONS
        if g["generation"] == config["machine_generation"]
    )
    topo = _topo(gen["machine"])
    rates = {}
    for key, mode in (("cpu", gen["cpu_mode"]), ("offload", gen["offload_mode"])):
        rates[key] = imb_pingpong(
            topo, config["size"], mode=mode, warmup=2,
            repetitions=config["reps"],
            # The pin-down cache amortizes the reused buffers' pins, so
            # the comparison prices steady-state data movement.
            config=LmtConfig(mode=mode, knem_reg_cache=True),
            noise=_noise(config),
            **_budgets(config),
        ).throughput_mib
    return {
        "primary": "offload_mib_per_s",
        "offload_mib_per_s": rates["offload"],
        "cpu_mib_per_s": rates["cpu"],
        "cpu_mode": gen["cpu_mode"],
        "offload_mode": gen["offload_mode"],
        "offload_wins": rates["offload"] > rates["cpu"],
        "predicted_dmamin": topo.dmamin_bytes(2),
    }
