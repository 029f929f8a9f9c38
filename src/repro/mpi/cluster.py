"""Multi-node launcher: :func:`run_cluster` extends :func:`run_mpi`.

The rank-visible API is unchanged — ``main(ctx)`` generators, the same
communicator — but ranks now spread across the machines of a
:class:`~repro.net.fabric.ClusterSpec`.  Per pair of ranks the world
routes traffic over the right transport: same node -> the Nemesis
queues and intranode LMT backends, different nodes -> the NIC wire
protocol (bounce-buffer eager or RDMA rendezvous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.policy import ClusterLmtPolicy, LmtConfig
from repro.errors import MpiError
from repro.kernel.address_space import AddressSpace
from repro.kernel.knem import KnemDevice
from repro.mpi.coll.tuning import CollTuning
from repro.mpi.world import MpiRunResult, MpiWorld, RankContext, check_drained
from repro.net.cluster import Cluster
from repro.net.fabric import ClusterSpec
from repro.sim.engine import Engine

__all__ = ["ClusterWorld", "ClusterRunResult", "run_cluster"]


class ClusterWorld(MpiWorld):
    """An MpiWorld whose ranks span the nodes of a cluster."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        nprocs: int,
        bindings: Sequence[tuple[int, int]],
        policy: ClusterLmtPolicy,
        eager_cells: int = 8,
        coll_tuning: Optional[CollTuning] = None,
        noise=None,
    ) -> None:
        if len(bindings) != nprocs:
            raise MpiError(f"{nprocs} ranks but {len(bindings)} bindings")
        for node, _core in bindings:
            if not 0 <= node < cluster.nnodes:
                raise MpiError(
                    f"binding to node {node} outside 0..{cluster.nnodes - 1}"
                )
        # machine_of/node_of are consulted during the base constructor
        # (endpoints allocate their cells per machine), so the node map
        # must exist first.
        self.cluster = cluster
        self._node_of = [node for node, _core in bindings]
        super().__init__(
            engine,
            cluster.machines[0],
            nprocs,
            [core for _node, core in bindings],
            policy,
            eager_cells=eager_cells,
            coll_tuning=coll_tuning,
            noise=noise,
        )
        # Each rank's heap must live on its own node's memory, not
        # node 0's — rebuild the address spaces with the right machines.
        self.spaces = [
            AddressSpace(self.machine_of(r), pid=r, name=f"rank{r}")
            for r in range(nprocs)
        ]
        # One KNEM pseudo-device per node (the base class built node 0's).
        reg_cache_on = policy.config.knem_reg_cache

        def _knem(machine):
            if reg_cache_on:
                from repro.kernel.regcache import RegistrationCache

                return KnemDevice(machine, reg_cache=RegistrationCache())
            return KnemDevice(machine)

        self.knems = [self.knem] + [_knem(m) for m in cluster.machines[1:]]

    # --------------------------------------------------------- topology
    @property
    def nnodes(self) -> int:
        return self.cluster.nnodes

    def node_of(self, rank: int) -> int:
        return self._node_of[rank]

    def machine_of(self, rank: int):
        return self.cluster.machines[self._node_of[rank]]

    def knem_of(self, rank: int) -> KnemDevice:
        return self.knems[self._node_of[rank]]

    def nic_of(self, rank: int):
        return self.cluster.fabric.nic(self._node_of[rank])

    # ---------------------------------------------------------- traffic
    def deliver(self, src_rank: int, dst_rank: int, pkt) -> None:
        if self.same_node(src_rank, dst_rank):
            super().deliver(src_rank, dst_rank, pkt)
            return
        # Control packets (RTS/CTS/DONE) cross the fabric as small
        # wire messages through the sender's NIC.
        self.nic_of(src_rank).send_ctrl(
            self.node_of(dst_rank),
            lambda _req, p=pkt, d=dst_rank: self.endpoints[d].dispatch(p),
            parent=getattr(pkt, "span", None),
        )

    def select_backend(self, nbytes: int, src_rank: int, dst_rank: int):
        if self.same_node(src_rank, dst_rank):
            return super().select_backend(nbytes, src_rank, dst_rank)
        return self.policy.select_internode(
            nbytes,
            src_node=self.node_of(src_rank),
            dst_node=self.node_of(dst_rank),
            pair=(src_rank, dst_rank),
            now=self.engine.now,
        )

    def fallback_backend(self, backend, src_rank: int, dst_rank: int):
        """After a runtime registration failure, the internode
        rendezvous degrades to the registration-free staged pipeline."""
        if backend.name == "nic+rdma":
            self.policy.note_downgrade(
                (src_rank, dst_rank),
                backend.name,
                "nic+staged",
                "NIC memory registration failed",
                now=self.engine.now,
            )
            return self.policy.backend("nic+staged")
        return None


@dataclass
class ClusterRunResult(MpiRunResult):
    """Outcome of one :func:`run_cluster` call."""

    cluster: Cluster = None

    @property
    def fabric(self):
        return self.cluster.fabric


def run_cluster(
    spec: ClusterSpec,
    nprocs: Optional[int] = None,
    main: Callable[[RankContext], Any] = None,
    procs_per_node: Optional[int] = None,
    bindings: Optional[Sequence[tuple[int, int]]] = None,
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
) -> ClusterRunResult:
    """Run ``main(ctx)`` on ``nprocs`` ranks spread over a cluster.

    Parameters mirror :func:`repro.mpi.world.run_mpi`, with bindings as
    ``(node, core)`` pairs.  Defaults fill ranks node-major: the first
    ``procs_per_node`` ranks on node 0's cores ``0..``, the next batch
    on node 1, and so on.  ``mode``/``config`` pick the *intranode* LMT
    strategy; internode pairs always use the fabric's wire protocol.

    ``faults`` (a :class:`repro.faults.FaultPlan`) arms the fault model:
    wire-level drop/corrupt/flap plus the NICs' reliable delivery, and
    the capability-mask-driven LMT degradation chains.
    """
    if main is None:
        raise MpiError("run_cluster needs a main(ctx) generator function")
    if bindings is None:
        ppn = procs_per_node or spec.node.ncores
        if not 1 <= ppn <= spec.node.ncores:
            raise MpiError(
                f"procs_per_node {ppn} outside 1..{spec.node.ncores}"
            )
        if nprocs is None:
            nprocs = spec.nnodes * ppn
        bindings = [(r // ppn, r % ppn) for r in range(nprocs)]
    elif nprocs is None:
        nprocs = len(bindings)
    from repro.sim.noise import NoiseModel

    noise = NoiseModel.coerce(noise)
    engine = Engine(obs=obs, max_events=max_events, max_sim_time=max_sim_time)
    cluster = Cluster(engine, spec, faults=faults, noise=noise)
    policy = ClusterLmtPolicy(
        spec.node,
        config or LmtConfig(mode=mode),
        spec.fabric,
        capabilities=cluster.fabric.faults,
    )
    world = ClusterWorld(
        engine,
        cluster,
        nprocs,
        list(bindings),
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
    return ClusterRunResult(
        results=[p.result for p in processes],
        elapsed=engine.now,
        machine=cluster.machines[0],
        world=world,
        cluster=cluster,
        obs=engine.obs,
    )
