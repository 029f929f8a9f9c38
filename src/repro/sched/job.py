"""Job descriptions and workload generators for the scheduler.

A :class:`JobSpec` is everything the scheduler needs to admit one MPI
job into the shared machine: what it runs (workload + message/working
set size + LMT mode), how wide it is (nprocs), where it wants to sit
(placement policy, built on :func:`repro.mpi.affinity.bindings_for`'s
preference orders), and when it shows up (arrival time, priority).

Workloads are deliberately the paper's cast:

``pingpong``
    Neighbour pairs (rank ``2k`` ⇄ ``2k+1``) bounce a ``size``-byte
    message ``reps`` times — the Fig. 4/5 kernel, and the cache
    *aggressor* when run in ``default`` (shm double-buffering) mode.
``alltoall``
    One ``MPI_Alltoall`` of ``size`` total bytes per rank per rep —
    the Sec. 4.4 collective whose concurrency floods cache and bus.
``stream``
    A pure compute phase scanning a ``size``-byte working set each rep
    (no communication) — the cache *victim*: its runtime is a direct
    function of how much of its working set survives in the shared L2.
``is-kernel``
    The NAS IS skeleton: a working-set scan followed by an alltoall
    each rep — compute whose locality communication can destroy.
``nhood``
    A node-aware sparse neighborhood exchange (:mod:`repro.nhood`) on
    a *virtual* two-node partition of the job's ranks: the aggregation
    leaders gather/scatter their members' payloads through the job's
    LMT mode on the shared machine, so a ``default`` (shm copy-ring)
    leader pollutes the shared L2 exactly like a pingpong aggressor —
    and a KNEM/I/OAT leader does not.  The leader staging buffers are
    ordinary job allocations, so every line they evict is attributed
    by the :class:`~repro.sched.interference.InterferenceLedger`.

:class:`JobMix` builds seeded, reproducible mixes of such jobs; the
named mixes (:data:`JOB_MIXES`) are the ``job_mix`` campaign axis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.policy import MODES
from repro.errors import SchedError
from repro.units import KiB, MiB

__all__ = ["JobSpec", "JobMix", "WORKLOADS", "JOB_MIXES", "workload_main", "mix_jobs"]

WORKLOADS = ("pingpong", "alltoall", "stream", "is-kernel", "nhood")

#: Named job mixes understood by :func:`mix_jobs` (the campaign axis).
JOB_MIXES = ("pair", "trio", "random", "nhood", "queue")


@dataclass(frozen=True)
class JobSpec:
    """One job submitted to the scheduler."""

    name: str
    workload: str = "pingpong"
    nprocs: int = 2
    #: Message size (comm workloads) / working-set size (stream).
    size: int = 1 * MiB
    #: Iterations of the workload's inner kernel.
    reps: int = 2
    #: LMT mode of this job's policy (see :data:`repro.core.policy.MODES`).
    mode: str = "default"
    #: ``packed`` prefers cache-sharing cores, ``spread`` avoids them.
    placement: str = "packed"
    #: Simulated submission time.
    arrival: float = 0.0
    #: Higher runs first among simultaneously-queued jobs.
    priority: int = 0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise SchedError(
                f"unknown workload {self.workload!r}; pick one of {WORKLOADS}"
            )
        if self.mode not in MODES:
            raise SchedError(
                f"unknown LMT mode {self.mode!r}; pick one of {MODES}"
            )
        if self.placement not in ("packed", "spread"):
            raise SchedError(
                f"placement must be 'packed' or 'spread': {self.placement!r}"
            )
        if self.nprocs < 1:
            raise SchedError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.workload in ("pingpong",) and self.nprocs % 2:
            raise SchedError(f"pingpong needs an even nprocs, got {self.nprocs}")
        if self.workload == "nhood" and self.nprocs < 4:
            raise SchedError(
                f"nhood needs nprocs >= 4 (two virtual nodes with members), "
                f"got {self.nprocs}"
            )
        if self.size < 1:
            raise SchedError(f"size must be positive, got {self.size}")
        if self.reps < 1:
            raise SchedError(f"reps must be >= 1, got {self.reps}")
        if self.arrival < 0:
            raise SchedError(f"arrival must be >= 0, got {self.arrival}")


# ------------------------------------------------------------- workloads
def _pingpong_main(spec: JobSpec):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(spec.size, name="pp")
        peer = ctx.rank ^ 1
        for rep in range(spec.reps):
            if ctx.rank % 2 == 0:
                yield comm.Send(buf, dest=peer, tag=rep)
                status = yield comm.Recv(buf, source=peer, tag=rep)
            else:
                status = yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep)
        return getattr(status, "path", None)

    return main


def _alltoall_main(spec: JobSpec):
    def main(ctx):
        comm = ctx.comm
        p = comm.size
        block = max(1, spec.size // max(p, 1))
        send = ctx.alloc(block * p, name="a2a.s")
        recv = ctx.alloc(block * p, name="a2a.r")
        for _ in range(spec.reps):
            yield comm.Alltoall(send, recv)
        return block * p

    return main


def _stream_main(spec: JobSpec):
    def main(ctx):
        ws = ctx.alloc(spec.size, name="ws")
        for i in range(spec.reps):
            yield ctx.touch(ws, write=bool(i % 2))
        return ctx.now

    return main


def _is_kernel_main(spec: JobSpec):
    def main(ctx):
        comm = ctx.comm
        p = comm.size
        ws = ctx.alloc(spec.size, name="is.ws")
        block = max(1, spec.size // (4 * max(p, 1)))
        send = ctx.alloc(block * p, name="is.s")
        recv = ctx.alloc(block * p, name="is.r")
        for _ in range(spec.reps):
            yield ctx.touch(ws, write=False)
            if p > 1:
                yield comm.Alltoall(send, recv)
        return ctx.now

    return main


def _nhood_main(spec: JobSpec):
    def main(ctx):
        from repro.nhood import irregular, neighbor_alltoallv

        comm = ctx.comm
        p = comm.size
        # spec.size is the job's total exchange volume per rep; spread
        # it over the graph's directed edges.
        degree = min(3, p - 1)
        halo = max(4 * KiB, spec.size // (p * degree))
        cg = irregular(p, halo, seed=0, degree=degree)
        g = cg.graph_of(ctx.rank)
        send = ctx.alloc(max(g.send_bytes, 1), name="nh.s")
        recv = ctx.alloc(max(g.recv_bytes, 1), name="nh.r")
        # Virtual two-node partition: aggregation leaders stage their
        # members' payloads through this job's LMT mode on the shared
        # machine (the interference experiment's whole point).
        half = (p + 1) // 2
        for _ in range(spec.reps):
            yield neighbor_alltoallv(
                comm, cg, send, recv, strategy="node-aware",
                node_of=lambda l: 0 if l < half else 1,
            )
        return ctx.now

    return main


_WORKLOAD_MAINS: dict[str, Callable[[JobSpec], Callable]] = {
    "pingpong": _pingpong_main,
    "alltoall": _alltoall_main,
    "stream": _stream_main,
    "is-kernel": _is_kernel_main,
    "nhood": _nhood_main,
}


def workload_main(spec: JobSpec) -> Callable:
    """The per-rank ``main(ctx)`` generator function for a job."""
    return _WORKLOAD_MAINS[spec.workload](spec)


# ------------------------------------------------------------------ mixes
@dataclass(frozen=True)
class JobMix:
    """A seeded, reproducible mix of jobs.

    Identical field values (seed included) always expand to the same
    job list — the determinism the campaign cache and the
    byte-identical ``BENCH_sched.json`` test rely on.
    """

    seed: int = 0
    njobs: int = 4
    workloads: tuple = ("pingpong", "stream")
    modes: tuple = ("default", "knem-ioat-async")
    sizes: tuple = (1 * MiB, 2 * MiB)
    nprocs: tuple = (2,)
    reps: int = 2
    #: Mean spacing between arrivals (0 = everything at t=0).
    arrival_spacing: float = 0.0
    placements: tuple = ("packed",)

    def jobs(self) -> list[JobSpec]:
        rng = random.Random(self.seed)
        out: list[JobSpec] = []
        clock = 0.0
        for i in range(self.njobs):
            workload = rng.choice(self.workloads)
            spec = JobSpec(
                name=f"mix{self.seed}.job{i}",
                workload=workload,
                nprocs=1 if workload == "stream" else rng.choice(self.nprocs),
                size=rng.choice(self.sizes),
                reps=self.reps,
                mode="default" if workload == "stream" else rng.choice(self.modes),
                placement=rng.choice(self.placements),
                arrival=clock,
                priority=0,
            )
            out.append(spec)
            if self.arrival_spacing > 0:
                clock += rng.uniform(0.5, 1.5) * self.arrival_spacing
        return out


def mix_jobs(
    mix: str,
    size: int = 1 * MiB,
    mode: str = "default",
    seed: int = 0,
    reps: int = 2,
) -> list[JobSpec]:
    """Expand a named mix (the campaign ``job_mix`` axis).

    ``pair``
        One ``stream`` victim plus one ``mode``-driven pingpong
        aggressor — the minimal interference experiment.
    ``trio``
        Two victims flanking the aggressor (a fuller machine).
    ``random``
        A seeded :class:`JobMix` of four jobs whose aggressors use
        ``mode``.
    ``nhood``
        One ``stream`` victim plus a four-rank node-aware neighborhood
        job in ``mode`` — the aggregation-leader variant of ``pair``:
        the leader's gather/scatter staging is the cache aggressor.
    ``queue``
        Three four-rank ``mode`` pingpongs, all arriving at once: on an
        eight-core machine one must wait, and the policy decides which.
    """
    if mix == "pair":
        return [
            JobSpec(name="victim", workload="stream", nprocs=1,
                    size=2 * size, reps=max(3, reps + 1)),
            JobSpec(name="aggressor", workload="pingpong", nprocs=2,
                    size=size, reps=reps, mode=mode),
        ]
    if mix == "trio":
        return [
            JobSpec(name="victim0", workload="stream", nprocs=1,
                    size=2 * size, reps=max(3, reps + 1)),
            JobSpec(name="aggressor", workload="pingpong", nprocs=2,
                    size=size, reps=reps, mode=mode),
            JobSpec(name="victim1", workload="is-kernel", nprocs=2,
                    size=size, reps=reps),
        ]
    if mix == "nhood":
        return [
            JobSpec(name="victim", workload="stream", nprocs=1,
                    size=2 * size, reps=max(3, reps + 1)),
            JobSpec(name="aggressor", workload="nhood", nprocs=4,
                    size=size, reps=reps, mode=mode),
        ]
    if mix == "queue":
        return [
            JobSpec(name=f"q{i}", workload="pingpong", nprocs=4, size=size,
                    reps=reps, mode=mode)
            for i in range(3)
        ]
    if mix == "random":
        base = JobMix(seed=seed, sizes=(size, 2 * size),
                      modes=(mode, "default"), reps=reps)
        return [replace(j, mode=mode) if j.workload == "pingpong" else j
                for j in base.jobs()]
    raise SchedError(f"unknown job mix {mix!r}; pick one of {JOB_MIXES}")


# keep dataclasses import usage explicit for linters
_ = field
