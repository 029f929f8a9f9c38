"""The launcher: bind ranks to cores, run the simulated MPI job.

:func:`run_mpi` is the top-level entry point of the whole library::

    from repro.hw import xeon_e5345
    from repro.mpi import run_mpi

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(1 << 20)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1)
        else:
            yield comm.Recv(buf, source=0)

    result = run_mpi(xeon_e5345(), nprocs=2, main=main,
                     bindings=[0, 1], mode="knem")
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.policy import LmtConfig, LmtPolicy
from repro.errors import MpiError
from repro.hw.machine import Machine
from repro.hw.topology import TopologySpec
from repro.kernel.address_space import AddressSpace, Buffer
from repro.kernel.knem import KnemDevice
from repro.kernel.pipes import Pipe
from repro.mpi.coll.tuning import CollTuning
from repro.mpi.communicator import Communicator
from repro.mpi.nemesis import Endpoint
from repro.sim.engine import Engine

__all__ = ["MpiWorld", "RankContext", "MpiRunResult", "run_mpi"]


class MpiWorld:
    """Shared state of one simulated MPI job."""

    def __init__(
        self,
        engine: Engine,
        machine: Machine,
        nprocs: int,
        bindings: Sequence[int],
        policy: LmtPolicy,
        eager_cells: int = 8,
        coll_tuning: Optional[CollTuning] = None,
        noise=None,
    ) -> None:
        if nprocs < 1:
            raise MpiError(f"nprocs must be >= 1, got {nprocs}")
        if len(bindings) != nprocs:
            raise MpiError(f"{nprocs} ranks but {len(bindings)} bindings")
        ncores = machine.topo.ncores
        for core in bindings:
            if not 0 <= core < ncores:
                raise MpiError(f"binding to core {core} outside 0..{ncores - 1}")
        self.engine = engine
        self.machine = machine
        self.nprocs = nprocs
        self.bindings = list(bindings)
        self.policy = policy
        self.coll_tuning = coll_tuning or CollTuning()
        #: Optional seeded run-to-run jitter (see repro.sim.noise).
        self.noise = noise
        reg_cache = None
        if policy.config.knem_reg_cache:
            from repro.kernel.regcache import RegistrationCache

            reg_cache = RegistrationCache()
        self.knem = KnemDevice(machine, reg_cache=reg_cache)
        self.spaces = [self._make_space(r) for r in range(nprocs)]
        self.endpoints = [Endpoint(self, r, ncells=eager_cells) for r in range(nprocs)]
        self._pipes: dict[tuple[int, int], Pipe] = {}
        self._rings: dict[tuple[int, int], Any] = {}
        self._txn_counter = itertools.count(1)
        self._cid_counter = itertools.count(1)
        self._cid_registry: dict = {}
        #: Per-cid neighborhood graphs (repro.nhood): ranks contribute
        #: their adjacency during Dist_graph_create_adjacent, modelling
        #: the setup allgather a real graph communicator pays once.
        self.nhood_graphs: dict = {}
        #: Collective concurrency hint (Secs. 4.4/6): how many large
        #: transfers the upper layer expects in flight simultaneously.
        self.lmt_hint = 1
        self._hint_depth = 0
        self._active_lmts = 0
        self.max_concurrent_lmts = 0

    def _make_space(self, rank: int) -> AddressSpace:
        """Address-space factory; :class:`repro.sched` job worlds
        override it to register allocations with the interference
        ledger of a shared machine."""
        return AddressSpace(self.machine, pid=rank, name=f"rank{rank}")

    # ----------------------------------------------------------- lookup
    def core_of(self, rank: int) -> int:
        return self.bindings[rank]

    # Node-topology hooks: a plain MpiWorld is one node.  ClusterWorld
    # (repro.mpi.cluster) overrides these so ranks span machines while
    # the communicator code stays node-agnostic.
    @property
    def nnodes(self) -> int:
        return 1

    def node_of(self, rank: int) -> int:
        return 0

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def machine_of(self, rank: int) -> Machine:
        return self.machine

    def knem_of(self, rank: int) -> KnemDevice:
        return self.knem

    def cache_sharers(self, rank: int) -> int:
        """How many ranks run on cores sharing ``rank``'s L2 (itself
        included) — the denominator of the DMAmin formula."""
        topo = self.machine_of(rank).topo
        mine = self.core_of(rank)
        node = self.node_of(rank)
        return sum(
            1
            for r in range(self.nprocs)
            if self.node_of(r) == node and topo.shares_cache(mine, self.core_of(r))
        )

    def select_backend(self, nbytes: int, src_rank: int, dst_rank: int):
        """Pick the rendezvous backend for one (src, dst) transfer."""
        return self.policy.select(
            nbytes,
            self.core_of(src_rank),
            self.core_of(dst_rank),
            cache_sharers=self.cache_sharers(dst_rank),
            hint=self.lmt_hint,
            node=self.node_of(dst_rank),
            pair=(src_rank, dst_rank),
            now=self.engine.now,
        )

    def fallback_backend(self, backend, src_rank: int, dst_rank: int):
        """Next backend to try after ``backend`` failed at runtime (e.g.
        an injected NIC registration failure).  None means give up and
        let the error propagate."""
        return None

    def new_txn(self) -> int:
        return next(self._txn_counter)

    def context_id(self, key) -> int:
        """Agreed context id for a derived communicator.

        All members call with the same deterministic key (parent cid,
        split sequence number, color), so they all receive the same id —
        the simulation's stand-in for MPICH's context-id agreement
        protocol (the communication cost is paid by the allgather the
        caller already performed).
        """
        if key not in self._cid_registry:
            self._cid_registry[key] = next(self._cid_counter)
        return self._cid_registry[key]

    # --------------------------------------------------------- transports
    def pipe(self, src_rank: int, dst_rank: int) -> Pipe:
        """The persistent per-ordered-pair pipe of the vmsplice LMT."""
        if not self.same_node(src_rank, dst_rank):
            raise MpiError(
                f"pipe between ranks {src_rank} and {dst_rank} on different nodes"
            )
        key = (src_rank, dst_rank)
        if key not in self._pipes:
            machine = self.machine_of(src_rank)
            pipe = Pipe(machine, name=f"pipe{src_rank}->{dst_rank}")
            params = machine.params
            shared = machine.topo.shares_cache(
                self.core_of(src_rank), self.core_of(dst_rank)
            )
            pipe.sync_cost = (
                params.t_pipe_sync_shared if shared else params.t_pipe_sync_remote
            )
            self._pipes[key] = pipe
        return self._pipes[key]

    def copy_ring(self, src_rank: int, dst_rank: int):
        """The persistent per-ordered-pair copy ring of the default LMT."""
        from repro.core.shm import CopyRing

        key = (src_rank, dst_rank)
        if key not in self._rings:
            self._rings[key] = CopyRing(self, src_rank, dst_rank)
        return self._rings[key]

    # ----------------------------------------------------------- traffic
    def deliver(self, src_rank: int, dst_rank: int, pkt) -> None:
        """Queue a control packet; the receiver notices it after the
        locality-dependent flag latency."""
        machine = self.machine_of(src_rank)
        params = machine.params
        src_core = self.core_of(src_rank)
        dst_core = self.core_of(dst_rank)
        if machine.topo.shares_cache(src_core, dst_core):
            latency = params.t_wakeup_shared
        else:
            latency = params.t_wakeup_remote
        if self.noise is not None:
            latency = self.noise.jitter(latency)
        self.engine.schedule(latency, self.endpoints[dst_rank].dispatch, pkt)

    # --------------------------------------------------- LMT concurrency
    def note_lmt_start(self) -> None:
        self._active_lmts += 1
        self.max_concurrent_lmts = max(self.max_concurrent_lmts, self._active_lmts)

    def note_lmt_end(self) -> None:
        self._active_lmts -= 1

    @contextmanager
    def collective_hint(self, concurrent: int):
        """Tell the LMT layer that ``concurrent`` large transfers are
        about to run at once (lowering the effective DMAmin).

        Depth-counted: ranks enter and leave a collective at different
        simulated times, and the hint stays active until the last
        participant leaves.
        """
        self._hint_depth += 1
        self.lmt_hint = max(self.lmt_hint, concurrent, 1)
        try:
            yield
        finally:
            self._hint_depth -= 1
            if self._hint_depth == 0:
                self.lmt_hint = 1


@dataclass
class RankContext:
    """Everything a rank's ``main`` generator needs."""

    world: MpiWorld
    rank: int
    comm: Communicator = field(init=False)

    def __post_init__(self) -> None:
        self.comm = Communicator(self.world, self.rank)

    # -- sugar ------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self.world.engine

    @property
    def machine(self) -> Machine:
        return self.world.machine_of(self.rank)

    @property
    def core(self) -> int:
        return self.world.core_of(self.rank)

    @property
    def now(self) -> float:
        return self.world.engine.now

    def alloc(self, nbytes: int, name: str = "") -> Buffer:
        """Allocate a buffer in this rank's address space."""
        return self.world.spaces[self.rank].alloc(nbytes, name=name)

    def compute(self, seconds: float):
        """Pure CPU work (no memory traffic) on this rank's core.
        Generator.  Subject to the world's noise model, if any."""
        if self.world.noise is not None:
            seconds = self.world.noise.jitter(seconds)
        self.machine.papi.add(self.core, "CPU_BUSY", seconds)
        yield self.machine.cores[self.core].busy(seconds)

    def touch(self, buf, write: bool = False, intensity: float = 1.0):
        """Scan a working set through the cache hierarchy (models a
        compute phase).  Generator."""
        from repro.kernel.copy import stream_access
        from repro.mpi.datatypes import as_views

        return stream_access(
            self.machine, self.core, as_views(buf), write=write, intensity=intensity
        )


def check_drained(world: MpiWorld) -> None:
    """Raise :class:`MpiError` when a finished run left sent messages
    unmatched: some receive was lost, even if every rank returned."""
    leftovers = [
        f"rank {ep.rank} holds "
        + ", ".join(
            f"{n} from source {src} tag {tag}"
            for (src, tag), n in ep.unmatched_counts().items()
        )
        for ep in world.endpoints
        if ep.pending_unexpected
    ]
    if leftovers:
        raise MpiError(
            "run ended with sent messages never received: " + "; ".join(leftovers)
        )


@dataclass
class MpiRunResult:
    """Outcome of one :func:`run_mpi` call."""

    results: list
    elapsed: float
    machine: Machine
    world: MpiWorld
    #: The run's :class:`repro.obs.ObsCollector` (finalized: metrics
    #: absorbed, configured exports written).
    obs: Any = None

    @property
    def papi(self):
        return self.machine.papi

    def l2_misses(self, rank: Optional[int] = None) -> float:
        """Total simulated L2 misses (per rank, or summed) — the
        Table 2 measurement."""
        if rank is not None:
            return self.papi.read(self.world.core_of(rank), "L2_MISSES")
        return sum(
            self.papi.read(core, "L2_MISSES") for core in self.world.bindings
        )


def run_mpi(
    topo: TopologySpec,
    nprocs: int,
    main: Callable[[RankContext], Any],
    bindings: Optional[Sequence[int]] = None,
    mode: str = "default",
    config: Optional[LmtConfig] = None,
    eager_cells: int = 8,
    until: Optional[float] = None,
    coll_tuning: Optional[CollTuning] = None,
    noise=None,
    faults=None,
    obs=None,
    max_events: Optional[int] = None,
    max_sim_time: Optional[float] = None,
) -> MpiRunResult:
    """Run ``main(ctx)`` on ``nprocs`` simulated ranks.

    Parameters
    ----------
    topo:
        Machine description (see :mod:`repro.hw.presets`).
    main:
        Generator function taking a :class:`RankContext`; its return
        value lands in ``MpiRunResult.results[rank]``.
    bindings:
        Core per rank; defaults to ranks on cores ``0..nprocs-1``.
    mode / config:
        LMT strategy — a mode name, or a full :class:`LmtConfig`.
    faults:
        A :class:`repro.faults.FaultPlan` (or prebuilt ``FaultState``).
        On a single node only the capability masks matter: a rank pair
        whose node lacks ``knem``/``vmsplice`` transparently degrades
        down the LMT chain.
    obs:
        A :class:`repro.obs.ObsConfig` (or prebuilt
        :class:`~repro.obs.ObsCollector`) enabling causal spans and the
        metrics registry; the finalized collector lands in
        ``MpiRunResult.obs``.
    noise:
        A :class:`repro.sim.noise.NoiseModel`, or a bare int taken as
        an explicit noise seed (see :meth:`NoiseModel.coerce`).
    max_events / max_sim_time:
        Engine progress-watchdog budgets: exceeding either raises
        :class:`repro.errors.LivelockError` instead of spinning — the
        per-trial timeout used by :mod:`repro.campaign`.
    """
    from repro.sim.noise import NoiseModel

    noise = NoiseModel.coerce(noise)
    engine = Engine(obs=obs, max_events=max_events, max_sim_time=max_sim_time)
    machine = Machine(engine, topo)
    capabilities = None
    if faults is not None:
        from repro.faults import FaultState

        capabilities = faults if isinstance(faults, FaultState) else FaultState(faults)
    policy = LmtPolicy(topo, config or LmtConfig(mode=mode), capabilities=capabilities)
    world = MpiWorld(
        engine,
        machine,
        nprocs,
        list(bindings) if bindings is not None else list(range(nprocs)),
        policy,
        eager_cells=eager_cells,
        coll_tuning=coll_tuning,
        noise=noise,
    )
    contexts = [RankContext(world, r) for r in range(nprocs)]
    processes = [
        engine.process(main(ctx), name=f"rank{ctx.rank}") for ctx in contexts
    ]
    engine.run(until=until)
    engine.obs.finalize(world)
    if until is None:
        check_drained(world)
    return MpiRunResult(
        results=[p.result for p in processes],
        elapsed=engine.now,
        machine=machine,
        world=world,
        obs=engine.obs,
    )
