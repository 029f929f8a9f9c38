"""Hierarchy-aware (leader-based) collectives for cluster worlds.

On a cluster, a flat MPICH2 algorithm treats every rank pair alike —
but an internode hop costs far more than the Nemesis queues, and the
per-node NIC link is the scarce resource.  The classic fix is a
two-level decomposition: each node elects a **leader** (its
lowest-ranked member), ranks combine/distribute *within* the node
using the intranode paths, and only leaders talk across the fabric.
The wire then carries each byte once per *node* instead of once per
*rank*.

Selection lives in the flat dispatchers (:func:`~repro.mpi.coll.bcast.
bcast`, :func:`~repro.mpi.coll.reduce.allreduce`,
:func:`~repro.mpi.coll.alltoall.alltoall`) via the ``hier_*``
thresholds of :class:`~repro.mpi.coll.tuning.CollTuning`; this module
only provides the algorithms.  Each one recurses into the flat
collectives on the node-local and leader subcommunicators —
:func:`hier_applicable` guarantees those never re-enter the hierarchy
(a node communicator spans one node; a leader communicator has exactly
one rank per node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.kernel.copy import cpu_copy
from repro.mpi.coll.gather import _blocks, gather, scatter
from repro.mpi.coll.reduce import _itemsize, _scratch, allreduce, reduce
from repro.mpi.datatypes import as_views

__all__ = [
    "hier_applicable",
    "hier_groups",
    "HierGroups",
    "bcast_hier",
    "allreduce_hier",
    "alltoall_hier",
]

_HIER_TAG = -9000


def hier_applicable(comm) -> bool:
    """Can this communicator profit from the two-level decomposition?

    Requires a multi-node world, members on more than one node, and at
    least one node holding several members (otherwise the "hierarchy"
    degenerates into the flat algorithm with extra steps).
    """
    world = comm.world
    if getattr(world, "nnodes", 1) <= 1:
        return False
    nodes = {world.node_of(w) for w in comm.group}
    return len(nodes) > 1 and len(comm.group) > len(nodes)


@dataclass
class HierGroups:
    """The cached two-level decomposition of one communicator."""

    #: Node ids spanned, sorted; leader_comm rank i is nodes[i]'s leader.
    nodes: list[int]
    #: Per node (same order): the comm-local ranks living there, sorted.
    members: list[list[int]]
    #: Index of this rank's node within ``nodes``.
    my_node_idx: int
    #: Subcommunicator of this rank's node (leader is local rank 0).
    node_comm: "Communicator"  # noqa: F821
    #: Subcommunicator of the leaders — None on non-leader ranks.
    leader_comm: Optional["Communicator"]  # noqa: F821

    @property
    def is_leader(self) -> bool:
        return self.leader_comm is not None

    def leader_of(self, node_idx: int) -> int:
        """Comm-local rank of a node's leader."""
        return self.members[node_idx][0]


def hier_groups(comm) -> HierGroups:
    """Build (once per communicator) the node/leader subcommunicators.

    Uses the world's deterministic context-id registry, so all members
    agree on the derived cids without extra traffic — the agreement
    cost was already paid when ``comm`` itself was created.
    """
    from repro.mpi.communicator import Communicator

    cached = getattr(comm, "_hier_groups", None)
    if cached is not None:
        return cached
    world = comm.world
    by_node: dict[int, list[int]] = {}
    for local, world_rank in enumerate(comm.group):
        by_node.setdefault(world.node_of(world_rank), []).append(local)
    nodes = sorted(by_node)
    members = [sorted(by_node[n]) for n in nodes]
    my_node_idx = nodes.index(world.node_of(comm.world_rank))
    mine = members[my_node_idx]

    node_cid = world.context_id(("hier-node", comm.cid, nodes[my_node_idx]))
    node_comm = Communicator(
        world,
        mine.index(comm.rank),
        group=[comm.group[l] for l in mine],
        cid=node_cid,
    )
    leader_comm = None
    if comm.rank == mine[0]:
        leader_cid = world.context_id(("hier-leaders", comm.cid))
        leader_comm = Communicator(
            world,
            my_node_idx,
            group=[comm.group[m[0]] for m in members],
            cid=leader_cid,
        )
    groups = HierGroups(nodes, members, my_node_idx, node_comm, leader_comm)
    comm._hier_groups = groups
    return groups


# ------------------------------------------------------------------ bcast
def bcast_hier(comm, buf, root: int = 0):
    """Leader-based broadcast: root -> root's leader -> leaders ->
    node-local broadcast.  Generator."""
    from repro.mpi.coll.bcast import bcast

    groups = hier_groups(comm)
    world = comm.world
    root_node_idx = groups.nodes.index(world.node_of(comm.group[root]))
    root_leader = groups.leader_of(root_node_idx)

    # Hand the payload to the root node's leader if the root isn't it.
    if root != root_leader:
        if comm.rank == root:
            yield comm.Send(buf, dest=root_leader, tag=_HIER_TAG)
        elif comm.rank == root_leader:
            yield comm.Recv(buf, source=root, tag=_HIER_TAG)
    if groups.leader_comm is not None:
        yield from bcast(groups.leader_comm, buf, root=root_node_idx)
    yield from bcast(groups.node_comm, buf, root=0)


# -------------------------------------------------------------- allreduce
def allreduce_hier(comm, sendbuf, recvbuf, op=None, dtype=None):
    """Hierarchical allreduce.  Each payload byte crosses the fabric
    once per node (in each direction) instead of once per rank.

    Regular layouts (same member count on every node, a payload that
    divides into whole-element slices) use the Rabenseifner-style
    decomposition: node-local reduce-scatter, then every member runs a
    cross-node allreduce of *its* slice with its same-index peers, then
    a node-local allgather.
    Both the combine work and the intranode traffic spread over all
    members instead of serializing at the leader, and the slices of all
    members share the node's NIC link concurrently.  Irregular layouts
    fall back to the classic leader-based reduce/allreduce/bcast.
    Generator.
    """
    groups = hier_groups(comm)
    m = len(groups.members[groups.my_node_idx])
    nbytes = sum(v.nbytes for v in as_views(sendbuf))
    regular = (
        m > 1
        and all(len(members) == m for members in groups.members)
        and nbytes % m == 0
        and nbytes // m > 0
        and (nbytes // m) % _itemsize(dtype) == 0
    )
    if not regular:
        yield from _allreduce_leader(comm, groups, sendbuf, recvbuf, op, dtype)
        return

    from repro.mpi.coll.allgather import allgather
    from repro.mpi.coll.reduce import reduce_scatter_block

    block = nbytes // m
    t = groups.node_comm.rank
    slice_buf = _scratch(comm, "_hier_ar_slice", block)
    yield from reduce_scatter_block(
        groups.node_comm, sendbuf, slice_buf.view(0, block), op, dtype
    )
    cross = _cross_comm(comm, groups, t)
    yield from allreduce(
        cross, slice_buf.view(0, block), slice_buf.view(0, block), op, dtype
    )
    yield from allgather(groups.node_comm, slice_buf.view(0, block), recvbuf)


def _allreduce_leader(comm, groups, sendbuf, recvbuf, op, dtype):
    """Leader-based allreduce: node reduce, leader allreduce, node
    bcast.  Generator."""
    from repro.mpi.coll.bcast import bcast

    yield from reduce(groups.node_comm, sendbuf, recvbuf, 0, op, dtype)
    if groups.leader_comm is not None:
        yield from allreduce(groups.leader_comm, recvbuf, recvbuf, op, dtype)
    yield from bcast(groups.node_comm, recvbuf, root=0)


def _cross_comm(comm, groups: HierGroups, t: int):
    """Communicator of the rank-``t`` members of every node (cached).
    Requires a regular layout (every node has a member ``t``)."""
    cached = getattr(comm, "_hier_cross", None)
    if cached is not None:
        return cached
    from repro.mpi.communicator import Communicator

    cid = comm.world.context_id(("hier-cross", comm.cid, t))
    cross = Communicator(
        comm.world,
        groups.my_node_idx,
        group=[comm.group[members[t]] for members in groups.members],
        cid=cid,
    )
    comm._hier_cross = cross
    return cross


# --------------------------------------------------------------- alltoall
def alltoall_hier(comm, sendbuf, recvbuf):
    """Leader-aggregated alltoall for small per-pair blocks.

    Phase 1: each node gathers its members' full send buffers at the
    leader.  Phase 2: the leader packs one combined message per
    destination node and the leaders run a single alltoallv — N*(N-1)
    wire messages instead of P*(P-1).  Phase 3: leaders unpack into
    member-major order and scatter.  The packing copies are real
    (timed), which is why this only pays for small blocks.  Generator.
    """
    from repro.mpi.coll.alltoall import alltoallv

    groups = hier_groups(comm)
    p = comm.size
    _send_blocks, block = _blocks(sendbuf, p)
    machine = comm.machine
    mine = groups.members[groups.my_node_idx]
    m = len(mine)

    if groups.leader_comm is None:
        yield from gather(groups.node_comm, sendbuf, None, root=0)
        yield from scatter(groups.node_comm, None, recvbuf, root=0)
        return

    # ---- leader ------------------------------------------------------
    row = p * block          # one member's full send (or recv) buffer
    gathered = _scratch(comm, "_hier_gather", m * row)
    yield from gather(groups.node_comm, sendbuf, gathered.view(0, m * row), root=0)

    # Pack: for each destination node, the blocks of all (my member i,
    # their member t) pairs, i-major.
    stage = _scratch(comm, "_hier_stage", m * row)
    send_counts = []
    offset = 0
    for theirs in groups.members:
        send_counts.append(m * len(theirs) * block)
        for i in range(m):
            for dst_local in theirs:
                piece = gathered.view(i * row + dst_local * block, block)
                yield from cpu_copy(
                    machine, comm.core, [stage.view(offset, block)], [piece]
                )
                offset += block

    recv_counts = [len(theirs) * m * block for theirs in groups.members]
    inbound = _scratch(comm, "_hier_inbound", m * row)
    yield from alltoallv(
        groups.leader_comm,
        stage.view(0, m * row),
        send_counts,
        inbound.view(0, m * row),
        recv_counts,
    )

    # Unpack into member-major rows: member t's row holds one block per
    # global source, ordered by comm-local source rank.
    final = _scratch(comm, "_hier_final", m * row)
    in_off = 0
    for theirs in groups.members:
        for src_local in theirs:
            for t in range(m):
                yield from cpu_copy(
                    machine,
                    comm.core,
                    [final.view(t * row + src_local * block, block)],
                    [inbound.view(in_off, block)],
                )
                in_off += block

    yield from scatter(groups.node_comm, final.view(0, m * row), recvbuf, root=0)
