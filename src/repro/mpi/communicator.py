"""The mpi4py-flavoured communicator.

Every operation returns a **generator**: simulated rank code yields it
(``status = yield comm.Recv(buf)``).  Nonblocking variants spawn the
blocking implementation as a separate process and return a
:class:`~repro.mpi.request.Request` immediately.

Protocol selection (Sec. 2): messages at or below the eager threshold
travel through the Nemesis cells (two copies, but latency-optimal);
larger ones rendezvous through the LMT backend chosen by the policy.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.core.lmt import TransferSide
from repro.errors import MpiError, RankError, RegistrationError, TruncationError
from repro.kernel.address_space import BufferView, total_bytes
from repro.kernel.copy import cpu_copy
from repro.mpi.datatypes import BufLike, as_views
from repro.mpi.nemesis import (
    CtsPacket,
    DonePacket,
    EagerPacket,
    NetEagerPacket,
    RtsPacket,
    SelfPacket,
)
from repro.mpi.request import Request
from repro.mpi.status import Status

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1


def _clip_views(views: list[BufferView], nbytes: int) -> list[BufferView]:
    """Truncate an iovec to its first ``nbytes`` bytes."""
    out: list[BufferView] = []
    left = nbytes
    for v in views:
        if left <= 0:
            break
        n = min(v.nbytes, left)
        out.append(v.sub(0, n) if n != v.nbytes else v)
        left -= n
    return out


class Communicator:
    """A communicator for one simulated rank.

    ``COMM_WORLD`` has context id 0 and the identity group;
    :meth:`Split` derives sub-communicators with their own context ids
    (message matching includes the context, so traffic on different
    communicators never cross-matches).  ``rank``/``size``/``dest``
    arguments are *local* to this communicator; translation to world
    ranks happens at the wire.
    """

    def __init__(
        self,
        world,
        rank: int,
        group: Optional[list[int]] = None,
        cid: int = 0,
    ) -> None:
        self.world = world
        #: World ranks of the members, indexed by local rank.
        self.group = list(group) if group is not None else list(range(world.nprocs))
        self.cid = cid
        self.rank = rank                      # local rank
        self.size = len(self.group)
        self.world_rank = self.group[rank]
        self.core = world.core_of(self.world_rank)
        #: The machine this rank's core lives on (one of several in a
        #: cluster world).
        self.machine = world.machine_of(self.world_rank)
        self.endpoint = world.endpoints[self.world_rank]
        self._world_to_local = {w: l for l, w in enumerate(self.group)}
        self._split_seq = 0
        #: The collective span currently open on this rank (sends
        #: started inside a collective parent to it).
        self._active_coll = None

    # mpi4py-style accessors -------------------------------------------
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise RankError(f"{what} {rank} out of range [0, {self.size})")

    def _to_world(self, local: int) -> int:
        return self.group[local]

    def _to_local(self, world_rank: int) -> int:
        return self._world_to_local[world_rank]

    def _sw_overhead(self):
        """Per-message software cost of the Nemesis queues."""
        cost = self.machine.params.t_mpi_overhead
        self.machine.papi.add(self.core, "CPU_BUSY", cost)
        yield self.machine.cores[self.core].busy(cost)

    # ------------------------------------------------------------- send
    def Send(self, buf: BufLike, dest: int, tag: int = 0):
        """Blocking send (generator).  Returns a Status."""
        views = as_views(buf)
        self._check_rank(dest, "dest")
        return self._send_impl(views, dest, tag)

    def Isend(self, buf: BufLike, dest: int, tag: int = 0) -> Request:
        views = as_views(buf)
        self._check_rank(dest, "dest")
        proc = self.world.engine.process(
            self._send_impl(views, dest, tag),
            name=f"r{self.rank}.isend->{dest}",
        )
        return Request(proc, "isend")

    def _send_impl(self, views: list[BufferView], dest: int, tag: int):
        nbytes = total_bytes(views)
        world = self.world
        dest_world = self._to_world(dest)
        if dest == self.rank:
            yield from self._send_self(views, nbytes, tag)
        elif not world.same_node(self.world_rank, dest_world):
            # Internode: the wire protocol's eager/rendezvous switch.
            if nbytes <= world.policy.net_eager_max:
                from repro.net.protocol import send_eager

                yield from send_eager(self, views, nbytes, dest_world, tag)
            else:
                yield from self._send_rndv(views, nbytes, dest_world, tag)
        elif (
            nbytes < world.policy.eager_threshold
            and nbytes <= self.endpoint.cell_bytes
        ):
            yield from self._send_eager(views, nbytes, dest_world, tag)
        else:
            yield from self._send_rndv(views, nbytes, dest_world, tag)
        return Status(source=self.rank, tag=tag, nbytes=nbytes, path="send")

    def _send_self(self, views, nbytes, tag):
        yield from self._sw_overhead()
        obs = self.world.engine.obs
        span = None
        if obs.enabled:
            span = obs.begin(
                "msg.send", kind="msg", track=f"core{self.core}",
                parent=self._active_coll, dst=self.world_rank,
                nbytes=nbytes, tag=tag, path="self",
            )
        pkt = SelfPacket(
            src=self.world_rank,
            tag=tag,
            nbytes=nbytes,
            views=views,
            copied=self.world.engine.event("self-copied"),
            cid=self.cid,
            span=span,
        )
        self.endpoint.dispatch(pkt)
        yield pkt.copied  # buffer reusable once the receive copied it
        obs.end(span)

    def _cell_cost(self, nbytes: int):
        """Per-cell queue-operation cost of an eager transfer leg.

        Eager payloads travel in small Nemesis cells; every cell pays a
        queue enqueue/dequeue on the participating core.  This is what
        makes the eager path fall behind the single-copy LMTs well
        before the 64 KiB rendezvous switch (the paper's Fig. 7
        observation that the LMT threshold should be lowered).
        """
        params = self.machine.params
        ncells = max(1, -(-nbytes // params.eager_cell_bytes))
        cost = ncells * params.t_cell_op
        self.machine.papi.add(self.core, "CPU_BUSY", cost)
        yield self.machine.cores[self.core].busy(cost)

    def _send_eager(self, views, nbytes, dest_world, tag):
        yield from self._sw_overhead()
        obs = self.world.engine.obs
        span = None
        if obs.enabled:
            span = obs.begin(
                "msg.send", kind="msg", track=f"core{self.core}",
                parent=self._active_coll, dst=dest_world,
                nbytes=nbytes, tag=tag, path="eager",
            )
        cell = None
        if nbytes > 0:
            dst_ep = self.world.endpoints[dest_world]
            cell = yield dst_ep.free_cells.get()
            # All senders targeting this rank funnel into one queue:
            # cell fills + enqueues serialize at the queue tail.
            yield dst_ep.enqueue_lock.acquire()
            try:
                yield from self._cell_cost(nbytes)
                yield from cpu_copy(
                    self.machine, self.core, [cell.view(0, nbytes)], views,
                    parent=span,
                )
            finally:
                dst_ep.enqueue_lock.release()
        self.world.deliver(
            self.world_rank,
            dest_world,
            EagerPacket(
                src=self.world_rank, tag=tag, nbytes=nbytes, cell=cell,
                cid=self.cid, span=span,
            ),
        )
        obs.end(span)

    def _send_rndv(self, views, nbytes, dest_world, tag):
        yield from self._sw_overhead()
        world = self.world
        peer_core = world.core_of(dest_world)
        backend = world.select_backend(nbytes, self.world_rank, dest_world)
        obs = world.engine.obs
        msg_span = None
        if obs.enabled:
            msg_span = obs.begin(
                "msg.send", kind="msg", track=f"core{self.core}",
                parent=self._active_coll, backend=backend.name,
                dst=dest_world, nbytes=nbytes, tag=tag, path="rndv",
            )
        txn = world.new_txn()
        waiters = self.endpoint.open_txn(txn)
        side = TransferSide(
            world, self.world_rank, self.core, dest_world, peer_core, views, nbytes, txn
        )
        side.span = msg_span
        world.note_lmt_start()
        try:
            try:
                info = yield from backend.sender_start(side)
            except RegistrationError:
                # e.g. an injected NIC registration failure: retry on
                # the world's fallback (registration-free) backend.
                fallback = world.fallback_backend(backend, self.world_rank, dest_world)
                if fallback is None:
                    raise
                backend = fallback
                side.scratch.clear()
                obs.annotate(msg_span, backend=backend.name, downgraded=True)
                info = yield from backend.sender_start(side)
            world.deliver(
                self.world_rank,
                dest_world,
                RtsPacket(
                    src=self.world_rank,
                    tag=tag,
                    nbytes=nbytes,
                    txn=txn,
                    backend=backend.name,
                    info=info,
                    cid=self.cid,
                    span=msg_span,
                ),
            )
            hs = None
            if obs.enabled:
                hs = obs.begin(
                    "cts.wait", kind="handshake", track=f"core{self.core}",
                    parent=msg_span, txn=txn,
                )
            cts_info = yield waiters["cts"]
            obs.end(hs)
            # The receiver may have downgraded (its own registration
            # failed); the CTS then names the backend both sides use.
            switched = cts_info.pop("backend", None)
            if switched is not None and switched != backend.name:
                backend = world.policy.backend(switched)
                obs.annotate(msg_span, backend=backend.name, downgraded=True)
            yield from backend.sender_on_cts(side, cts_info)
            if backend.receiver_sends_done:
                hs = None
                if obs.enabled:
                    hs = obs.begin(
                        "done.wait", kind="handshake", track=f"core{self.core}",
                        parent=msg_span, txn=txn,
                    )
                yield waiters["done"]
                obs.end(hs)
        finally:
            self.endpoint.close_txn(txn)
            world.note_lmt_end()
            obs.end(msg_span)

    # ------------------------------------------------------------- recv
    def Recv(self, buf: BufLike, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator).  Returns the Status."""
        views = as_views(buf)
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        return self._recv_impl(views, source, tag)

    def Irecv(
        self, buf: BufLike, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        views = as_views(buf)
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        proc = self.world.engine.process(
            self._recv_impl(views, source, tag),
            name=f"r{self.rank}.irecv<-{source}",
        )
        return Request(proc, "irecv")

    def _recv_impl(self, views: list[BufferView], source: int, tag: int):
        capacity = total_bytes(views)
        src_world = self._to_world(source) if source != ANY_SOURCE else ANY_SOURCE
        posted = self.endpoint.post_recv(src_world, tag, self.cid)
        pkt = yield posted.event
        if pkt.nbytes > capacity:
            raise TruncationError(
                f"rank {self.rank}: message of {pkt.nbytes}B from {pkt.src} "
                f"exceeds receive buffer of {capacity}B"
            )
        machine = self.machine
        obs = self.world.engine.obs

        if isinstance(pkt, SelfPacket):
            yield from self._sw_overhead()
            span = None
            if obs.enabled:
                span = obs.begin(
                    "msg.recv", kind="msg", track=f"core{self.core}",
                    parent=pkt.span, src=pkt.src, nbytes=pkt.nbytes, path="self",
                )
            if pkt.nbytes:
                yield from cpu_copy(
                    machine, self.core, _clip_views(views, pkt.nbytes), pkt.views,
                    parent=span,
                )
            pkt.copied.succeed()
            obs.end(span)
            return Status(self._to_local(pkt.src), pkt.tag, pkt.nbytes, "self")

        if isinstance(pkt, EagerPacket):
            yield from self._sw_overhead()
            span = None
            if obs.enabled:
                span = obs.begin(
                    "msg.recv", kind="msg", track=f"core{self.core}",
                    parent=pkt.span, src=pkt.src, nbytes=pkt.nbytes, path="eager",
                )
            if pkt.nbytes:
                yield from self._cell_cost(pkt.nbytes)
                yield from cpu_copy(
                    machine,
                    self.core,
                    _clip_views(views, pkt.nbytes),
                    [pkt.cell.view(0, pkt.nbytes)],
                    parent=span,
                )
                self.endpoint.free_cells.put(pkt.cell)
            self.endpoint.eager_received += 1
            obs.end(span)
            return Status(self._to_local(pkt.src), pkt.tag, pkt.nbytes, "eager")

        if isinstance(pkt, NetEagerPacket):
            yield from self._sw_overhead()
            span = None
            if obs.enabled:
                span = obs.begin(
                    "msg.recv", kind="msg", track=f"core{self.core}",
                    parent=getattr(pkt, "span", None), src=pkt.src,
                    nbytes=pkt.nbytes, path="net-eager",
                )
            if pkt.nbytes:
                # Drain the NIC's receive-side bounce buffer, then hand
                # it back to the preposted pool.
                yield from cpu_copy(
                    machine, self.core, _clip_views(views, pkt.nbytes),
                    [pkt.staged], parent=span,
                )
                pkt.release()
            self.endpoint.eager_received += 1
            obs.end(span)
            return Status(self._to_local(pkt.src), pkt.tag, pkt.nbytes, "net-eager")

        if isinstance(pkt, RtsPacket):
            backend = self.world.policy.backend(pkt.backend)
            recv_span = None
            if obs.enabled:
                recv_span = obs.begin(
                    "msg.recv", kind="msg", track=f"core{self.core}",
                    parent=pkt.span, src=pkt.src, nbytes=pkt.nbytes,
                    backend=pkt.backend, path="rndv",
                )
            side = TransferSide(
                self.world,
                self.world_rank,
                self.core,
                pkt.src,
                self.world.core_of(pkt.src),
                _clip_views(views, pkt.nbytes),
                pkt.nbytes,
                pkt.txn,
            )
            side.span = recv_span
            try:
                cts_info = yield from backend.receiver_prepare(side, pkt.info)
            except RegistrationError:
                fallback = self.world.fallback_backend(
                    backend, pkt.src, self.world_rank
                )
                if fallback is None:
                    raise
                backend = fallback
                side.scratch.clear()
                obs.annotate(recv_span, backend=backend.name, downgraded=True)
                cts_info = yield from backend.receiver_prepare(side, pkt.info)
                # Tell the sender which backend actually runs.
                cts_info = dict(cts_info)
                cts_info["backend"] = backend.name
            self.world.deliver(
                self.world_rank, pkt.src,
                CtsPacket(txn=pkt.txn, info=cts_info, span=recv_span),
            )
            path = yield from backend.receiver_transfer(side, pkt.info)
            if backend.receiver_sends_done:
                self.world.deliver(
                    self.world_rank, pkt.src,
                    DonePacket(txn=pkt.txn, span=recv_span),
                )
            self.endpoint.rndv_received += 1
            obs.end(recv_span, path=path)
            return Status(self._to_local(pkt.src), pkt.tag, pkt.nbytes, path)

        raise MpiError(f"unexpected packet {pkt!r}")

    # -------------------------------------------------------- send+recv
    def Sendrecv(
        self,
        sendbuf: BufLike,
        dest: int,
        recvbuf: BufLike,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ):
        """Concurrent send and receive (generator); returns the receive
        Status."""

        def impl():
            rreq = self.Irecv(recvbuf, source, recvtag)
            sreq = self.Isend(sendbuf, dest, sendtag)
            yield from Request.waitall([sreq, rreq])
            return rreq.process.result

        return impl()

    # ------------------------------------------------- derived communicators
    def Split(self, color: Optional[int], key: int = 0):
        """MPI_Comm_split (generator): returns a new communicator of
        all ranks that passed the same ``color`` (ordered by ``key``,
        ties by parent rank), or None for ``color=None`` (undefined).

        Costs one small allgather on the parent communicator, like the
        real agreement protocol.
        """

        def impl():
            p = self.size
            send = self.world.spaces[self.world_rank].alloc(8, name="split.s")
            recv = self.world.spaces[self.world_rank].alloc(8 * p, name="split.r")
            c = -(2**31) if color is None else int(color)
            send.data[:] = bytearray(struct.pack("<ii", c, int(key)))
            yield self.Allgather(send, recv)
            raw = recv.data.tobytes()
            entries = [
                struct.unpack_from("<ii", raw, r * 8) + (r,) for r in range(p)
            ]
            seq = self._split_seq
            self._split_seq += 1
            if color is None:
                return None
            members = [
                r
                for (cc, kk, r) in sorted(
                    (e for e in entries if e[0] == c),
                    key=lambda e: (e[1], e[2]),
                )
            ]
            cid = self.world.context_id(("split", self.cid, seq, c))
            return Communicator(
                self.world,
                members.index(self.rank),
                group=[self.group[m] for m in members],
                cid=cid,
            )

        return impl()

    # --------------------------------------------- neighborhood topology
    def Dist_graph_create_adjacent(self, sources, src_counts, dests, dst_counts):
        """MPI_Dist_graph_create_adjacent (generator): returns a new
        communicator (same group, fresh context id) carrying this
        rank's sparse adjacency, with every member's adjacency visible
        through the world registry — the simulation's stand-in for the
        setup allgather.  Counts are bytes.  Costs two barriers
        (contribute, then agree everyone has)."""
        from repro.nhood.graph import CommGraph, dist_graph_adjacent

        def impl():
            g = dist_graph_adjacent(sources, src_counts, dests, dst_counts)
            g.validate_for(self.size)
            yield self.Barrier()
            seq = self._split_seq
            self._split_seq += 1
            cid = self.world.context_id(("dist-graph", self.cid, seq))
            cg = self.world.nhood_graphs.setdefault(
                cid, CommGraph(size=self.size, graphs=[None] * self.size)
            )
            cg.graphs[self.rank] = g
            yield self.Barrier()
            new = Communicator(self.world, self.rank, group=self.group, cid=cid)
            new._comm_graph = cg
            return new

        return impl()

    @property
    def graph(self):
        """The :class:`~repro.nhood.graph.CommGraph` attached by
        :meth:`Dist_graph_create_adjacent`, or None."""
        return getattr(self, "_comm_graph", None)

    def Neighbor_alltoallv(
        self, sendbuf, recvbuf, strategy="direct", graph=None, node_of=None
    ):
        """Sparse neighborhood exchange over the attached (or passed)
        graph — see :func:`repro.nhood.strategy.neighbor_alltoallv`.
        Generator."""
        from repro.nhood.graph import NhoodError
        from repro.nhood.strategy import neighbor_alltoallv

        cg = graph if graph is not None else self.graph
        if cg is None:
            raise NhoodError(
                "no neighborhood graph: create one with "
                "Dist_graph_create_adjacent or pass graph="
            )
        return neighbor_alltoallv(
            self, cg, sendbuf, recvbuf, strategy=strategy, node_of=node_of
        )

    # -------------------------------------------------------- collectives
    def _coll(self, name: str, gen):
        """Wrap a collective's generator in a ``coll`` phase span.

        Point-to-point sends this rank starts while the collective is
        open parent to it (``_active_coll``), so a collective's message
        trees hang off one phase span per rank.
        """
        obs = self.world.engine.obs
        if not obs.enabled:
            return gen

        def impl():
            span = obs.begin(
                f"coll.{name}", kind="coll", track=f"core{self.core}",
                parent=self._active_coll, rank=self.rank,
            )
            prev = self._active_coll
            self._active_coll = span
            try:
                result = yield from gen
            finally:
                self._active_coll = prev
                obs.end(span)
            return result

        return impl()

    def Barrier(self):
        from repro.mpi.coll.barrier import barrier

        return self._coll("barrier", barrier(self))

    def Bcast(self, buf: BufLike, root: int = 0):
        from repro.mpi.coll.bcast import bcast

        return self._coll("bcast", bcast(self, buf, root))

    def Reduce(self, sendbuf, recvbuf, root: int = 0, op=None, dtype=None):
        from repro.mpi.coll.reduce import reduce as _reduce

        return self._coll("reduce", _reduce(self, sendbuf, recvbuf, root, op, dtype))

    def Allreduce(self, sendbuf, recvbuf, op=None, dtype=None):
        from repro.mpi.coll.reduce import allreduce

        return self._coll("allreduce", allreduce(self, sendbuf, recvbuf, op, dtype))

    def Allgather(self, sendbuf, recvbuf):
        from repro.mpi.coll.allgather import allgather

        return self._coll("allgather", allgather(self, sendbuf, recvbuf))

    def Alltoall(self, sendbuf, recvbuf):
        from repro.mpi.coll.alltoall import alltoall

        return self._coll("alltoall", alltoall(self, sendbuf, recvbuf))

    def Alltoallv(self, sendbuf, send_counts, recvbuf, recv_counts):
        from repro.mpi.coll.alltoall import alltoallv

        return self._coll(
            "alltoallv", alltoallv(self, sendbuf, send_counts, recvbuf, recv_counts)
        )
