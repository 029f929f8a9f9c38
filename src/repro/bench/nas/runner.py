"""Phase interpreter: execute a NasSpec on the simulated MPI runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bench.nas.spec import (
    Alltoall,
    Alltoallv,
    Compute,
    Exchange,
    NasSpec,
    Reduce,
    Stream,
)
from repro.core.policy import LmtConfig
from repro.errors import BenchmarkError
from repro.hw.topology import TopologySpec
from repro.mpi.world import run_mpi

__all__ = ["NasResult", "run_nas"]


@dataclass(frozen=True)
class NasResult:
    """Outcome of one NAS benchmark run."""

    label: str
    mode: str
    seconds: float
    l2_misses: float
    paper_default_seconds: float
    #: Finalized :class:`repro.obs.ObsCollector` when the caller passed
    #: an obs config; None otherwise.
    obs: object = None

    def speedup_vs(self, baseline: "NasResult") -> float:
        """Relative improvement over a baseline run (paper's last
        column: + is faster)."""
        return baseline.seconds / self.seconds - 1.0


def _run_phase(ctx, phase, arrays):
    """Generator executing one phase on one rank."""
    comm = ctx.comm
    p = comm.size
    rank = ctx.rank
    if isinstance(phase, Compute):
        yield ctx.compute(phase.seconds)
    elif isinstance(phase, Stream):
        buf = arrays[phase.array]
        whole, frac = int(phase.passes), phase.passes - int(phase.passes)
        for _ in range(whole):
            yield ctx.touch(buf, write=phase.write, intensity=phase.intensity)
        if frac > 0:
            nbytes = max(1, int(buf.nbytes * frac))
            yield ctx.touch(
                buf.view(0, nbytes), write=phase.write, intensity=phase.intensity
            )
    elif isinstance(phase, Exchange):
        if p > 1:
            send = arrays["__xchg_s"]
            recv = arrays["__xchg_r"]
            right = (rank + 1) % p
            left = (rank - 1) % p
            for i in range(phase.count):
                yield comm.Sendrecv(
                    send.view(0, phase.nbytes),
                    right,
                    recv.view(0, phase.nbytes),
                    left,
                    sendtag=900 + i,
                    recvtag=900 + i,
                )
    elif isinstance(phase, Alltoall):
        yield comm.Alltoall(
            arrays["__coll_s"].view(0, phase.block * p),
            arrays["__coll_r"].view(0, phase.block * p),
        )
    elif isinstance(phase, Alltoallv):
        counts = [phase.per_peer] * p
        yield comm.Alltoallv(
            arrays["__coll_s"].view(0, phase.per_peer * p),
            counts,
            arrays["__coll_r"].view(0, phase.per_peer * p),
            counts,
        )
    elif isinstance(phase, Reduce):
        for _ in range(phase.count):
            yield comm.Allreduce(
                arrays["__red_s"].view(0, phase.nbytes),
                arrays["__red_r"].view(0, phase.nbytes),
            )
    else:
        raise BenchmarkError(f"unknown phase {phase!r}")


def _scratch_sizes(spec: NasSpec) -> dict[str, int]:
    """Sizes of the implicit communication scratch arrays."""
    xchg = 1
    coll = 1
    red = 1
    for phase in list(spec.init) + list(spec.iteration):
        if isinstance(phase, Exchange):
            xchg = max(xchg, phase.nbytes)
        elif isinstance(phase, Alltoall):
            coll = max(coll, phase.block * spec.nprocs)
        elif isinstance(phase, Alltoallv):
            coll = max(coll, phase.per_peer * spec.nprocs)
        elif isinstance(phase, Reduce):
            red = max(red, phase.nbytes)
    return {
        "__xchg_s": xchg,
        "__xchg_r": xchg,
        "__coll_s": coll,
        "__coll_r": coll,
        "__red_s": red,
        "__red_r": red,
    }


def run_nas(
    spec: NasSpec,
    topo: TopologySpec,
    mode: str = "default",
    config: Optional[LmtConfig] = None,
    iterations: Optional[int] = None,
    bindings: Optional[list[int]] = None,
    noise=None,
    obs=None,
    max_events: Optional[int] = None,
    max_sim_time: Optional[float] = None,
) -> NasResult:
    """Run one NAS skeleton; returns the timed-region duration.

    ``iterations`` overrides the spec (for scaled-down test runs); the
    reported time extrapolates linearly to the full iteration count.
    ``noise``, ``obs`` and the watchdog budgets go to the one run.
    """
    iters = iterations or spec.iterations
    marks: dict[str, float] = {}
    bindings = bindings if bindings is not None else list(range(spec.nprocs))

    def main(ctx):
        comm = ctx.comm
        arrays = {
            name: ctx.alloc(nbytes, name=f"{spec.name}.{name}.r{ctx.rank}")
            for name, nbytes in {**spec.arrays, **_scratch_sizes(spec)}.items()
        }
        for phase in spec.init:
            yield from _run_phase(ctx, phase, arrays)
        yield comm.Barrier()
        if ctx.rank == 0:
            marks["start"] = ctx.now
            marks["misses0"] = ctx.machine.papi.total("L2_MISSES", cores=bindings)
        for _ in range(iters):
            for phase in spec.iteration:
                yield from _run_phase(ctx, phase, arrays)
        yield comm.Barrier()
        if ctx.rank == 0:
            marks["stop"] = ctx.now
            marks["misses1"] = ctx.machine.papi.total("L2_MISSES", cores=bindings)

    result = run_mpi(
        topo,
        spec.nprocs,
        main,
        bindings=bindings,
        mode=mode,
        config=config,
        noise=noise,
        obs=obs,
        max_events=max_events,
        max_sim_time=max_sim_time,
    )
    scale = spec.iterations / iters
    return NasResult(
        label=spec.label,
        mode=mode,
        seconds=(marks["stop"] - marks["start"]) * scale,
        l2_misses=(marks["misses1"] - marks["misses0"]) * scale,
        paper_default_seconds=spec.paper_default_seconds,
        obs=result.obs,
    )
