"""Nemesis endpoints: packets, eager cells, tag matching, transactions.

Each rank owns an :class:`Endpoint` holding:

- a pool of shared-memory **eager cells** (the Nemesis free queue):
  a sender grabs one of the *receiver's* free cells, copies the payload
  in, and posts an :class:`EagerPacket`;
- the **posted-receive** and **unexpected** queues with MPI tag
  matching (wildcards supported);
- the **rendezvous transaction** table routing CTS/DONE packets back to
  the sender process parked inside ``MPI_Send``.

Packet delivery latency models the receiver noticing the queue flag —
cheap when the two cores share a cache, a full FSB cacheline ping when
they do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import MpiError
from repro.kernel.address_space import Buffer, BufferView, alloc_shared
from repro.sim.events import Event
from repro.sim.resources import Channel, FifoLock

__all__ = [
    "EagerPacket",
    "RtsPacket",
    "CtsPacket",
    "DonePacket",
    "SelfPacket",
    "PostedRecv",
    "Endpoint",
]


# ---------------------------------------------------------------- packets
@dataclass
class EagerPacket:
    """Small message already copied into one of the receiver's cells."""

    src: int
    tag: int
    nbytes: int
    cell: Optional[Buffer]  # None for zero-byte messages
    cid: int = 0  # communicator context id
    #: Observability parent (the sender's ``msg.send`` span), so the
    #: receive side joins the same causal tree.
    span: Any = None


@dataclass
class RtsPacket:
    """Rendezvous request-to-send: big message waiting at the sender."""

    src: int
    tag: int
    nbytes: int
    txn: int
    backend: str
    info: dict = field(default_factory=dict)
    cid: int = 0
    span: Any = None


@dataclass
class CtsPacket:
    """Clear-to-send: routed to the sender's transaction."""

    txn: int
    info: dict = field(default_factory=dict)
    span: Any = None


@dataclass
class DonePacket:
    """Transfer complete: releases the sender's buffer/cookie."""

    txn: int
    span: Any = None


@dataclass
class SelfPacket:
    """Send-to-self: the receiver copies straight from these views."""

    src: int
    tag: int
    nbytes: int
    views: list
    copied: Event | None = None  # sender may wait for the pickup
    cid: int = 0
    span: Any = None


@dataclass
class NetEagerPacket:
    """Small internode message staged in the receiver NIC's bounce pool.

    Matches like an :class:`EagerPacket`; the receive path copies out of
    ``staged`` and calls ``release`` to return the bounce buffer to the
    preposted pool (see :mod:`repro.net.protocol`).
    """

    src: int
    tag: int
    nbytes: int
    staged: Optional[BufferView] = None
    release: Optional[Callable[[], None]] = None
    cid: int = 0
    #: Observability parent (the sender's ``msg.send`` span).
    span: Any = None


_MATCHABLE = (EagerPacket, RtsPacket, SelfPacket, NetEagerPacket)


def _matches(posted_source: int, posted_tag: int, posted_cid: int, pkt) -> bool:
    from repro.mpi.communicator import ANY_SOURCE, ANY_TAG

    if pkt.cid != posted_cid:
        return False
    if posted_source != ANY_SOURCE and pkt.src != posted_source:
        return False
    if posted_tag != ANY_TAG and pkt.tag != posted_tag:
        return False
    return True


class PostedRecv:
    """One posted receive waiting for a matching arrival."""

    __slots__ = ("source", "tag", "cid", "event")

    def __init__(self, engine, source: int, tag: int, cid: int = 0) -> None:
        self.source = source
        self.tag = tag
        self.cid = cid
        self.event: Event = engine.event("recv-match")


class Endpoint:
    """Per-rank Nemesis state."""

    def __init__(self, world, rank: int, ncells: int = 8) -> None:
        self.world = world
        self.rank = rank
        engine = world.engine
        machine = world.machine_of(rank)
        cell_bytes = machine.params.lmt_threshold
        self.cell_bytes = cell_bytes
        #: The receiver-owned free-cell queue senders allocate from.
        self.free_cells: Channel = Channel(engine, name=f"r{rank}.cells")
        #: The receiver's single incoming queue: concurrent eager
        #: senders serialize at its tail cacheline.
        self.enqueue_lock = FifoLock(engine, name=f"r{rank}.q")
        for i in range(ncells):
            self.free_cells.put(
                alloc_shared(machine, cell_bytes, name=f"r{rank}.cell{i}")
            )
        self._posted: list[PostedRecv] = []
        self._unexpected: list[Any] = []
        self._txns: dict[int, dict[str, Event]] = {}
        # Diagnostics
        self.eager_received = 0
        self.rndv_received = 0

    # --------------------------------------------------------- matching
    def post_recv(self, source: int, tag: int, cid: int = 0) -> PostedRecv:
        """Post a receive; matches an unexpected arrival immediately if
        one is queued (FIFO per matching rule)."""
        posted = PostedRecv(self.world.engine, source, tag, cid)
        for i, pkt in enumerate(self._unexpected):
            if _matches(source, tag, cid, pkt):
                del self._unexpected[i]
                posted.event.succeed(pkt)
                return posted
        self._posted.append(posted)
        return posted

    def iprobe(self, source: int, tag: int, cid: int = 0):
        """Nonblocking probe: the first matching unexpected packet (not
        consumed), or None."""
        for pkt in self._unexpected:
            if _matches(source, tag, cid, pkt):
                return pkt
        return None

    def dispatch(self, pkt) -> None:
        """Entry point for every arriving packet."""
        if isinstance(pkt, _MATCHABLE):
            for i, posted in enumerate(self._posted):
                if _matches(posted.source, posted.tag, posted.cid, pkt):
                    del self._posted[i]
                    posted.event.succeed(pkt)
                    return
            self._unexpected.append(pkt)
            return
        if isinstance(pkt, CtsPacket):
            self._txn(pkt.txn)["cts"].succeed(pkt.info)
            return
        if isinstance(pkt, DonePacket):
            self._txn(pkt.txn)["done"].succeed()
            return
        raise MpiError(f"rank {self.rank}: unknown packet {pkt!r}")

    # ------------------------------------------------------ transactions
    def open_txn(self, txn: int) -> dict[str, Event]:
        if txn in self._txns:
            raise MpiError(f"duplicate transaction {txn}")
        engine = self.world.engine
        waiters = {
            "cts": engine.event(f"txn{txn}.cts"),
            "done": engine.event(f"txn{txn}.done"),
        }
        self._txns[txn] = waiters
        return waiters

    def close_txn(self, txn: int) -> None:
        self._txns.pop(txn, None)

    def _txn(self, txn: int) -> dict[str, Event]:
        try:
            return self._txns[txn]
        except KeyError:
            raise MpiError(f"rank {self.rank}: stray packet for txn {txn}") from None

    # -------------------------------------------------------- diagnostics
    @property
    def pending_unexpected(self) -> int:
        return len(self._unexpected)

    @property
    def pending_posted(self) -> int:
        return len(self._posted)

    def unmatched_counts(self) -> dict[tuple[int, int], int]:
        """(source, tag) -> number of queued packets no receive matched."""
        counts: dict[tuple[int, int], int] = {}
        for pkt in self._unexpected:
            key = (pkt.src, pkt.tag)
            counts[key] = counts.get(key, 0) + 1
        return counts
