"""Per-node NICs: in-order descriptor queues with completion events.

Deliberately the same shape as :class:`repro.hw.dma.DmaEngine` — the
"Memory Operation Offloading" view of a NIC as one more asynchronous
copy engine.  A TX worker drains the descriptor queue in order; each
descriptor's service time is the wire serialization at ``link_rate``
overlapped with the DMA read from host DRAM (which contends with the
node's cores on the shared DRAM bus).  The RX worker mirrors it on the
destination node: DMA write into host memory, then the completion
callback after the CQ-poll delay.

Requests complete either locally (``ack=False``: the event fires when
the NIC has read the last byte — the host buffer is reusable) or
remotely (``ack=True``: a tiny hardware ack returns after the last
byte lands, the RDMA-write semantic).

Memory registration reuses :class:`repro.kernel.regcache.RegistrationCache`
per NIC: first touch of a buffer pays a per-page pin + translation-entry
cost, repeats are free — the InfiniBand-style pin-down cache whose
break-even sets the eager/rendezvous crossover.

**Reliable delivery.**  When the fabric carries a fault plan (see
:mod:`repro.faults`), every request is sequence-numbered and covered by
a retransmission timer: the receiving NIC acks a complete, uncorrupted
delivery; a sender whose timer fires re-posts the whole request with
exponential backoff, up to ``FabricParams.max_retries`` attempts, then
fails the request with :class:`repro.errors.RetryExhaustedError` — a
loud error at the MPI layer instead of a silent hang.  Duplicate
deliveries (a spurious timeout racing the ack) are detected at the
receiver and discarded, and with a zero-rate plan the machinery is
perfectly transparent: timers arm and cancel without ever adding a
simulated event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Optional

from repro.errors import HardwareError, RegistrationError, RetryExhaustedError
from repro.kernel.address_space import BufferView, alloc_shared, copy_payload
from repro.kernel.regcache import RegistrationCache
from repro.sim.events import Event, Join
from repro.sim.resources import Channel
from repro.units import CACHE_LINE

__all__ = ["NetDescriptor", "NicRequest", "EagerRdmaSlot", "Nic"]


@dataclass
class NetDescriptor:
    """One wire segment handed to the NIC.

    ``src_phys``/``dst_phys`` of -1 mean "not host user memory on that
    side" (control headers, staged eager payloads) — no coherence work
    is charged for that side.
    """

    nbytes: int
    execute: Optional[Callable[[], None]] = None
    src_phys: int = -1
    dst_phys: int = -1


@dataclass
class EagerRdmaSlot:
    """One credit of a persistent eager-RDMA association (Liu et al.).

    ``tx`` lives on the sender's machine and is registered through the
    sender NIC's pin-down cache (whole-buffer range, so repeated sends
    hit the same cache entry); ``rx`` is the matching landing zone on
    the receiver's machine, established at association time.  The
    credit returns to the ring only when the receiver drains the
    payload — the flow control that keeps the landing zone from being
    overwritten.
    """

    tx: BufferView
    rx: BufferView


@dataclass
class NicRequest:
    """A batch of descriptors with a single completion notification."""

    dst_node: int
    descriptors: list[NetDescriptor]
    done: Event
    #: True: ``done`` fires on the remote ack (RDMA write).  False:
    #: ``done`` fires once the local NIC read the last byte.
    ack: bool = False
    #: Stage the payload into a receive-side bounce buffer on arrival
    #: (the eager path); fills ``rx_view`` before ``on_delivered`` runs.
    stage_rx: bool = False
    payload_nbytes: int = 0
    #: Sender-side staging view the RX staging copy reads from.
    tx_stage: Optional[BufferView] = None
    #: Returns the sender's bounce buffer to its pool (called once the
    #: payload left the wire into receive-side memory).
    tx_release: Optional[Callable[[], None]] = None
    #: Delivered-side callback, scheduled ``t_completion`` after the
    #: last byte lands; receives this request.
    on_delivered: Optional[Callable[["NicRequest"], None]] = None
    kind: str = "ctrl"
    src_node: int = -1
    # Filled by the receive-side staging (eager path).
    rx_view: Optional[BufferView] = None
    rx_release: Optional[Callable[[], None]] = None
    # Reliable-delivery state (used when the fabric has a fault plan).
    seq: int = 0
    retries: int = 0
    #: Set once by the receiving NIC when the full request landed clean;
    #: later (retransmitted) deliveries of the same request are
    #: duplicates and are discarded.
    delivered: bool = False
    #: A descriptor of the in-flight transmission arrived corrupted; the
    #: whole delivery is discarded at the tail (the retransmission
    #: carries clean bytes).
    rx_corrupt: bool = False
    #: Which transmission attempt the receiver is currently assembling,
    #: and how many of its descriptors have landed — a tail whose
    #: attempt is missing descriptors (drops upstream) must NOT
    #: complete, or the payload would silently carry a hole.
    rx_attempt: int = -1
    rx_count: int = 0
    rto_handle: object = None
    rto_value: float = 0.0
    #: Observability parent: the logical send this request implements
    #: (``rdma.write``, ``msg.send``...).  Each transmission attempt
    #: becomes a sibling ``attempt`` span under it.
    span: object = None

    @property
    def nbytes(self) -> int:
        return sum(d.nbytes for d in self.descriptors)


class Nic:
    """One node's network interface."""

    def __init__(self, engine, machine, node: int, fabric) -> None:
        self.engine = engine
        self.machine = machine
        self.node = node
        self.fabric = fabric
        self.params = fabric.params
        self._tx_queue = Channel(engine, name=f"nic{node}.tx")
        self._rx_queue = Channel(engine, name=f"nic{node}.rx")
        #: Pin-down cache for RDMA registrations (per NIC, like per HCA).
        self.regcache = RegistrationCache()
        #: Send-side bounce buffers for eager staging.
        self.tx_bounce = Channel(engine, name=f"nic{node}.txb")
        for i in range(self.params.tx_bounce_count):
            self.tx_bounce.put(
                alloc_shared(machine, self.params.eager_max, name=f"nic{node}.txb{i}")
            )
        #: Receive-side preposted bounce buffers (finite: senders feel
        #: backpressure through RX head-of-line blocking when the
        #: receiver falls behind).
        self.rx_bounce = Channel(engine, name=f"nic{node}.rxb")
        for i in range(self.params.rx_bounce_count):
            self.rx_bounce.put(
                alloc_shared(machine, self.params.eager_max, name=f"nic{node}.rxb{i}")
            )
        #: Persistent eager-RDMA associations, keyed by destination
        #: node; built lazily on first eager send to that peer (the
        #: out-of-band connection handshake Liu et al. describe).
        self._er_rings: dict[int, Channel] = {}
        # Diagnostics
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.requests_tx = 0
        # Eager-RDMA ablation counters (absorbed into repro.obs metrics).
        self.eager_rdma_sends = 0
        self.eager_rdma_fallbacks = 0
        # Resilience counters (flow into bench.reporting.resilience_block).
        self.retransmits = 0
        self.rx_duplicates = 0
        self.rx_corrupt_discards = 0
        self.rx_incomplete_discards = 0
        self.retries_exhausted = 0
        self.backoff_seconds = 0.0
        self._seq = count(1)
        engine.process(self._tx_run(), name=f"nic{node}.tx", daemon=True)
        engine.process(self._rx_run(), name=f"nic{node}.rx", daemon=True)

    @property
    def _reliable(self) -> bool:
        """Reliable delivery is armed whenever a fault plan is present
        (even a zero-rate one — which must stay timing-transparent)."""
        return self.fabric.faults is not None

    # ---------------------------------------------------------- submit
    def build_descriptors(self, segments) -> list[NetDescriptor]:
        """Split (src_phys, dst_phys, nbytes, execute) segments at the
        NIC's maximum descriptor size (execute rides the final piece)."""
        out: list[NetDescriptor] = []
        limit = self.params.nic_max_desc_bytes
        for src, dst, nbytes, execute in segments:
            if nbytes <= 0:
                raise HardwareError(f"bad NIC segment length {nbytes}")
            offset = 0
            while offset < nbytes:
                piece = min(limit, nbytes - offset)
                is_last = offset + piece >= nbytes
                out.append(
                    NetDescriptor(
                        nbytes=piece,
                        execute=execute if is_last else None,
                        src_phys=src + offset if src >= 0 else -1,
                        dst_phys=dst + offset if dst >= 0 else -1,
                    )
                )
                offset += piece
        return out

    def submission_cost(self, request: NicRequest) -> float:
        """CPU time to post the work request.  One doorbell per request:
        the NIC segments autonomously, so large messages stay zero-CPU."""
        return self.params.t_doorbell

    def submit(self, request: NicRequest) -> None:
        """Enqueue a request (the caller charges
        :meth:`submission_cost` on its own core)."""
        if not request.descriptors:
            raise HardwareError("empty NIC request")
        if not 0 <= request.dst_node < self.fabric.nnodes:
            raise HardwareError(f"bad destination node {request.dst_node}")
        request.src_node = self.node
        request.seq = next(self._seq)
        self.requests_tx += 1
        self._tx_queue.put(request)

    def send_ctrl(self, dst_node: int, on_delivered, parent=None) -> NicRequest:
        """Fire a control packet (RTS/CTS/headers) at ``dst_node``."""
        request = NicRequest(
            dst_node=dst_node,
            descriptors=[NetDescriptor(nbytes=self.params.ctrl_bytes)],
            done=self.engine.event(f"nic{self.node}.ctrl"),
            on_delivered=on_delivered,
            kind="ctrl",
            span=parent,
        )
        self.submit(request)
        return request

    def eager_rdma_ring(self, dst_node: int) -> Channel:
        """The persistent-association credit ring toward ``dst_node``,
        built on first use.

        Each slot pairs a sender-side buffer here with a landing zone
        allocated on the remote machine; both span ``eager_max`` bytes.
        Allocation happens once per peer (association handshake); the
        per-send registration of the ``tx`` side goes through
        :meth:`register` so the pin-down cache turns steady state into
        hits.
        """
        ring = self._er_rings.get(dst_node)
        if ring is None:
            if not 0 <= dst_node < self.fabric.nnodes:
                raise HardwareError(f"bad eager-RDMA peer {dst_node}")
            remote = self.fabric.nics[dst_node]
            ring = Channel(self.engine, name=f"nic{self.node}.er{dst_node}")
            for i in range(self.params.eager_rdma_slots):
                tx = alloc_shared(
                    self.machine, self.params.eager_max,
                    name=f"nic{self.node}.ertx{dst_node}.{i}",
                )
                rx = alloc_shared(
                    remote.machine, self.params.eager_max,
                    name=f"nic{self.node}.errx{dst_node}.{i}",
                )
                ring.put(EagerRdmaSlot(tx=tx.view(), rx=rx.view()))
            self._er_rings[dst_node] = ring
        return ring

    # ---------------------------------------------------- registration
    def register(self, core: int, views, parent=None) -> "Generator":  # noqa: F821
        """Pin ``views`` and install NIC translation entries (generator,
        charged on ``core``).  Cached: re-registering is free.

        Raises :class:`RegistrationError` when the fault plan injects a
        registration failure on this node — the caller is expected to
        downgrade to a path that needs no registration (internode
        rendezvous falls back to the staged bounce-buffer pipeline).
        """
        faults = self.fabric.faults
        if faults is not None and faults.take_reg_failure(self.node):
            # The failed attempt still pays the syscall before erroring.
            yield from self.charge_cpu(core, self.machine.params.t_syscall)
            raise RegistrationError(
                f"node {self.node}: NIC memory registration failed (injected)"
            )
        pages = self.regcache.lookup_pages_to_pin(list(views))
        cost = self.machine.params.t_syscall + pages * self.params.t_reg_page
        obs = self.engine.obs
        span = None
        if obs.enabled:
            span = obs.begin(
                "nic.register", kind="pin", track=f"core{core}",
                parent=parent, pages=pages, node=self.node,
            )
        yield from self.charge_cpu(core, cost)
        obs.end(span)

    def charge_cpu(self, core: int, seconds: float):
        """Burn CPU on one of this node's cores (generator)."""
        self.machine.papi.add(core, "CPU_BUSY", seconds)
        yield self.machine.cores[core].busy(seconds)

    # ------------------------------------------------------------ work
    def _wire_time(self, request: NicRequest, desc: NetDescriptor) -> float:
        """Serialization time of one descriptor on the host link, under
        the fault plan's degradation windows and the fabric's noise."""
        seconds = desc.nbytes / self.params.link_rate
        faults = self.fabric.faults
        if faults is not None:
            seconds *= faults.degrade_factor(
                self.node, request.dst_node, self.engine.now
            )
        return self.fabric.jitter(seconds)

    def _tx_run(self):
        machine = self.machine
        line = CACHE_LINE
        obs = self.engine.obs
        while True:
            request: NicRequest = yield self._tx_queue.get()
            if request.delivered:
                # A queued retransmission made obsolete by a late ack.
                continue
            attempt_span = None
            if obs.enabled:
                attempt_span = obs.begin(
                    "nic.attempt", kind="attempt", track=f"nic{self.node}.tx",
                    parent=request.span, attempt=request.retries,
                    seq=request.seq, dst=request.dst_node, req=request.kind,
                )
            for desc in request.descriptors:
                if desc.src_phys >= 0:
                    # The NIC DMA-reads user memory: dirty lines flush.
                    l0, l1 = machine.line_span(desc.src_phys, desc.nbytes)
                    flushed = machine.coherence.dma_read(l0, l1)
                    machine.memory.charge_writebacks(flushed * line)
                wire_span = None
                if obs.enabled:
                    wire_span = obs.begin(
                        "nic.tx", kind="wire", track=f"nic{self.node}.tx",
                        parent=attempt_span, nbytes=desc.nbytes,
                    )
                join = Join(self.engine, 2)
                self.engine.schedule(self._wire_time(request, desc), join.arrive)
                machine.memory.dram_transfer(desc.nbytes, join)
                yield join
                obs.end(wire_span)
                self.bytes_tx += desc.nbytes
                self.fabric.switch.ingress(self.node, request, desc, request.retries)
            obs.end(attempt_span)
            if self._reliable and not request.delivered:
                self._arm_rto(request)
            if not request.ack and not request.done.triggered:
                # Local completion: the host buffer is reusable.
                request.done.succeed(self.engine.now)

    # ----------------------------------------------------- reliability
    def _rto_for(self, request: NicRequest) -> float:
        """Retransmission timeout: a latency floor plus a serialization
        allowance, doubled per retry (exponential backoff)."""
        p = self.params
        rto = p.rto_min + p.rto_factor * request.nbytes / p.link_rate
        return self.fabric.jitter(rto * (1 << request.retries))

    def _arm_rto(self, request: NicRequest) -> None:
        rto = self._rto_for(request)
        request.rto_value = rto
        request.rto_handle = self.engine.schedule(rto, self._on_rto, request)

    def _on_rto(self, request: NicRequest) -> None:
        request.rto_handle = None
        if request.delivered:
            return
        if request.retries >= self.params.max_retries:
            self.retries_exhausted += 1
            exc = RetryExhaustedError(
                f"nic{self.node}: request seq={request.seq} "
                f"({request.kind}, {request.nbytes}B -> node "
                f"{request.dst_node}) undelivered after "
                f"{request.retries} retransmissions"
            )
            if request.done.triggered:
                # Already completed locally (eager/ctrl semantics):
                # nobody is parked on the event, so surface the failure
                # through the engine — loud, not a hang.
                self.engine._record_failure(exc)
            else:
                had_waiters = bool(request.done._waiters)
                request.done.fail(exc)
                if not had_waiters:
                    self.engine._record_failure(exc)
            return
        # The elapsed timeout is pure backoff: the wire saw nothing.
        self.backoff_seconds += request.rto_value
        request.retries += 1
        self.retransmits += 1
        if self.engine.obs.enabled:
            self.engine.obs.instant(
                "nic.retransmit", track=f"nic{self.node}.tx",
                parent=request.span, seq=request.seq, attempt=request.retries,
            )
        self._tx_queue.put(request)

    def rx(
        self,
        request: NicRequest,
        desc: NetDescriptor,
        corrupt: bool = False,
        attempt: int = 0,
    ) -> None:
        """Wire-side entry point (called by the switch's last hop)."""
        self._rx_queue.put((request, desc, corrupt, attempt))

    def _rx_run(self):
        machine = self.machine
        obs = self.engine.obs
        while True:
            request, desc, corrupt, attempt = yield self._rx_queue.get()
            if attempt != request.rx_attempt:
                # First descriptor of a new transmission attempt (links
                # are in-order per (src, dst), so attempts never
                # interleave): restart the assembly bookkeeping.
                request.rx_attempt = attempt
                request.rx_count = 0
                request.rx_corrupt = False
            if desc.dst_phys >= 0:
                # RDMA write into user memory: cached copies invalidate.
                l0, l1 = machine.line_span(desc.dst_phys, desc.nbytes)
                machine.coherence.dma_write(l0, l1)
            rx_span = None
            if obs.enabled:
                rx_span = obs.begin(
                    "nic.rx", kind="wire", track=f"nic{self.node}.rx",
                    parent=request.span, nbytes=desc.nbytes,
                    src=request.src_node,
                )
            yield machine.memory.dram_transfer(desc.nbytes)
            obs.end(rx_span)
            if corrupt:
                # The bytes arrived (and cost the bus) but fail the
                # integrity check: taint the in-flight transmission and
                # never run its side effects.
                request.rx_corrupt = True
            elif desc.execute is not None and not request.delivered:
                desc.execute()
            self.bytes_rx += desc.nbytes
            request.rx_count += 1
            if desc is request.descriptors[-1]:
                corrupted = request.rx_corrupt
                complete = not corrupted and request.rx_count == len(
                    request.descriptors
                )
                if complete:
                    yield from self._complete_rx(request)
                else:
                    # Discard the whole delivery — corrupted, or the
                    # tail survived drops that ate earlier descriptors
                    # (completing would leave a hole in the payload).
                    # The sender's RTO retransmits the full request.
                    if corrupted:
                        self.rx_corrupt_discards += 1
                    else:
                        self.rx_incomplete_discards += 1
                    if obs.enabled:
                        obs.instant(
                            "nic.rx_discard", track=f"nic{self.node}.rx",
                            parent=request.span, seq=request.seq,
                            why="corrupt" if corrupted else "incomplete",
                        )

    def _ack_done(self, request: NicRequest, t: float) -> None:
        """Hardware-ack completion, guarded so a duplicate delivery (a
        spurious retransmission racing the first ack) can't trigger the
        one-shot event twice."""
        if not request.done.triggered:
            request.done.succeed(t)

    def _complete_rx(self, request: NicRequest):
        params = self.params
        if request.delivered:
            # A retransmission of a request that already landed clean
            # (its ack raced the sender's timer): swallow it.
            self.rx_duplicates += 1
            if self.engine.obs.enabled:
                self.engine.obs.instant(
                    "nic.rx_duplicate", track=f"nic{self.node}.rx",
                    parent=request.span, seq=request.seq, req=request.kind,
                )
            return
        request.delivered = True
        if self.engine.obs.enabled:
            self.engine.obs.instant(
                "nic.delivered", track=f"nic{self.node}.rx",
                parent=request.span, seq=request.seq, req=request.kind,
            )
        if request.rto_handle is not None:
            # Cancel the sender's timer synchronously — no extra
            # simulated event, so a zero-rate fault plan leaves the
            # event schedule untouched.
            request.rto_handle.cancel()
            request.rto_handle = None
        if request.stage_rx and request.payload_nbytes > 0:
            # Eager payloads land in a preposted bounce buffer on THIS
            # node; waiting for a free one models finite prepost depth
            # (and, via RX head-of-line blocking, sender backpressure).
            bounce = yield self.rx_bounce.get()
            view = bounce.view(0, request.payload_nbytes)
            l0, l1 = self.machine.line_span(view.phys, view.nbytes)
            self.machine.coherence.dma_write(l0, l1)
            copy_payload(view, request.tx_stage)
            request.rx_view = view
            request.rx_release = lambda b=bounce: self.rx_bounce.put(b)
            if request.tx_release is not None:
                request.tx_release()
        if request.ack:
            self.engine.schedule(
                params.ack_latency, self._ack_done, request, self.engine.now
            )
        if request.on_delivered is not None:
            if request.kind == "eager-rdma":
                # The receiver discovers an eager-RDMA payload by
                # polling the landing zone's tail flag from its own
                # progress loop — no completion-queue entry, so the
                # CQ-poll delay disappears (the protocol's latency win,
                # bought with pinned per-peer memory).
                self.engine.schedule(0.0, request.on_delivered, request)
            else:
                self.engine.schedule(
                    self.fabric.jitter(params.t_completion),
                    request.on_delivered,
                    request,
                )
