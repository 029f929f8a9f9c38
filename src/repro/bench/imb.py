"""Intel MPI Benchmarks (IMB) kernels: PingPong and Alltoall.

The paper's Figures 3-6 are IMB PingPong throughput sweeps; Figure 7 is
IMB Alltoall "aggregated throughput" over 8 local ranks.  Conventions
follow IMB: a warm-up phase excluded from timing, PingPong reporting
message_size / (round_trip / 2), Alltoall reporting total payload moved
per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.policy import LmtConfig
from repro.errors import BenchmarkError
from repro.hw.topology import TopologySpec
from repro.mpi.world import run_mpi
from repro.units import MiB

__all__ = [
    "PingPongResult",
    "AlltoallResult",
    "imb_pingpong",
    "imb_alltoall",
]


@dataclass(frozen=True)
class PingPongResult:
    """One IMB PingPong measurement."""

    nbytes: int
    mode: str
    bindings: tuple[int, int]
    repetitions: int
    one_way_seconds: float
    l2_misses: float  # both ranks, measured portion only

    @property
    def throughput_mib(self) -> float:
        return self.nbytes / MiB / self.one_way_seconds


@dataclass(frozen=True)
class AlltoallResult:
    """One IMB Alltoall measurement (8-rank by default)."""

    block_bytes: int
    nprocs: int
    mode: str
    repetitions: int
    seconds_per_op: float
    l2_misses: float

    @property
    def aggregated_mib(self) -> float:
        """Total payload moved per second, the Fig. 7 y-axis."""
        moved = self.nprocs * (self.nprocs - 1) * self.block_bytes
        return moved / MiB / self.seconds_per_op


def _check_warmup(warmup: int) -> None:
    """A negative warm-up would shift which repetitions are timed, so
    it is refused before anything is simulated."""
    if warmup < 0:
        raise BenchmarkError(f"warmup must be >= 0, got {warmup}")


def imb_pingpong(
    topo: TopologySpec,
    nbytes: int,
    mode: str = "default",
    bindings: Sequence[int] = (0, 1),
    warmup: int = 2,
    repetitions: int = 6,
    config: Optional[LmtConfig] = None,
    **run,
) -> PingPongResult:
    """Run an IMB PingPong at one message size; ``run`` holds further
    :func:`~repro.mpi.world.run_mpi` keywords (noise, obs, budgets)."""
    if nbytes <= 0 or repetitions <= 0:
        raise BenchmarkError(f"bad pingpong parameters: {nbytes}B x {repetitions}")
    _check_warmup(warmup)
    marks: dict[str, float] = {}

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes, name=f"pp.r{ctx.rank}")
        peer = 1 - ctx.rank
        for rep in range(warmup + repetitions):
            if rep == warmup and ctx.rank == 0:
                marks["start"] = ctx.now
                marks["misses0"] = ctx.machine.papi.total(
                    "L2_MISSES", cores=list(bindings)
                )
            if ctx.rank == 0:
                yield comm.Send(buf, dest=peer, tag=rep)
                yield comm.Recv(buf, source=peer, tag=rep)
            else:
                yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep)
        if ctx.rank == 0:
            marks["stop"] = ctx.now
            marks["misses1"] = ctx.machine.papi.total(
                "L2_MISSES", cores=list(bindings)
            )

    run_mpi(topo, 2, main, bindings=list(bindings), mode=mode, config=config,
            **run)
    elapsed = marks["stop"] - marks["start"]
    return PingPongResult(
        nbytes=nbytes,
        mode=mode,
        bindings=tuple(bindings),
        repetitions=repetitions,
        one_way_seconds=elapsed / (2 * repetitions),
        l2_misses=marks["misses1"] - marks["misses0"],
    )


def imb_alltoall(
    topo: TopologySpec,
    block_bytes: int,
    mode: str = "default",
    nprocs: int = 8,
    warmup: int = 1,
    repetitions: int = 3,
    bindings: Optional[Sequence[int]] = None,
    config: Optional[LmtConfig] = None,
    **run,
) -> AlltoallResult:
    """Run an IMB Alltoall at one per-pair block size; ``run`` holds
    further :func:`~repro.mpi.world.run_mpi` keywords (obs, budgets)."""
    if block_bytes <= 0 or repetitions <= 0:
        raise BenchmarkError(f"bad alltoall parameters: {block_bytes}B x {repetitions}")
    _check_warmup(warmup)
    bindings = list(bindings) if bindings is not None else list(range(nprocs))
    marks: dict[str, float] = {}

    def main(ctx):
        comm = ctx.comm
        p = comm.size
        send = ctx.alloc(block_bytes * p, name=f"a2a.s{ctx.rank}")
        recv = ctx.alloc(block_bytes * p, name=f"a2a.r{ctx.rank}")
        marks.setdefault("elapsed", 0.0)
        marks.setdefault("misses", 0.0)
        for rep in range(warmup + repetitions):
            # Produce fresh send data (untimed).  Applications generate
            # new payloads between collectives; rewriting the buffer
            # invalidates the peers' stale shared copies so each
            # operation moves real data — without this, the idealized
            # fully-associative cache model reaches a zero-traffic
            # steady state that no set-associative machine sustains.
            yield ctx.touch(send, write=True)
            yield comm.Barrier()
            if ctx.rank == 0:
                t0 = ctx.now
                m0 = ctx.machine.papi.total("L2_MISSES", cores=bindings)
            yield comm.Alltoall(send, recv)
            yield comm.Barrier()
            if ctx.rank == 0 and rep >= warmup:
                marks["elapsed"] += ctx.now - t0
                marks["misses"] += (
                    ctx.machine.papi.total("L2_MISSES", cores=bindings) - m0
                )

    run_mpi(topo, nprocs, main, bindings=bindings, mode=mode, config=config,
            **run)
    return AlltoallResult(
        block_bytes=block_bytes,
        nprocs=nprocs,
        mode=mode,
        repetitions=repetitions,
        seconds_per_op=marks["elapsed"] / repetitions,
        l2_misses=marks["misses"],
    )
