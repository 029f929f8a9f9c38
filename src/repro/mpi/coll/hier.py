"""The hierarchy-aware (leader-based) allreduce for cluster worlds.

On a cluster, a flat MPICH2 algorithm treats every rank pair alike —
but an internode hop costs far more than the Nemesis queues, and the
per-node NIC link is the scarce resource.  The classic fix is a
two-level decomposition: each node elects a **leader** (its
lowest-ranked member), ranks combine/distribute *within* the node
using the intranode paths, and only leaders talk across the fabric.
The wire then carries each byte once per *node* instead of once per
*rank*.

Selection lives in the flat dispatcher
(:func:`~repro.mpi.coll.reduce.allreduce`) via the ``hier_allreduce_min``
threshold of :class:`~repro.mpi.coll.tuning.CollTuning`; this module
only provides the algorithm.  It recurses into the flat collectives on
the node-local, leader and cross-node subcommunicators —
:func:`hier_applicable` guarantees those never re-enter the hierarchy
(a node communicator spans one node; a leader communicator has exactly
one rank per node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mpi.coll.reduce import _itemsize, _scratch, allreduce, reduce
from repro.mpi.datatypes import as_views

__all__ = [
    "hier_applicable",
    "hier_groups",
    "HierGroups",
    "allreduce_hier",
]


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
