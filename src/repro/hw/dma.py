"""Cache-bypassing copy engines: the paper's I/OAT and a DSA-class device.

Sec. 3.3: I/OAT is a dedicated device in the memory controller that
performs memory copies in the background.  The processor neither
executes the copy nor caches the data, so I/OAT copies pollute no cache
— at the price of a per-descriptor submission cost and DRAM-speed
transfers.  A DSA-class engine (Park et al.'s modern offload shape) is
the same device model with other constants, so one
:class:`DmaEngine` class serves both:

=================  ===========================  ==============================
                   I/OAT (``machine.dma``)      DSA (``machine.dsa``)
=================  ===========================  ==============================
rate / max desc    ``dma_rate``,                ``dsa_rate``,
                   ``dma_max_desc_bytes``       ``dsa_max_desc_bytes``
doorbell           ``dma_submit`` per           ``dsa_enqueue`` per batch of
                   descriptor                   ``dsa_batch_max`` descriptors
misalign penalty   ``dma_misalign_penalty``     none
queues             ``dma_channels``, global     ``dsa_engines`` per socket
status line        only for ``status_write``    after every request
=================  ===========================  ==============================

Each queue processes descriptors strictly **in order**; the paper's
asynchronous completion trick (Sec. 3.4) exploits this by appending a
one-byte copy that writes ``Success`` into a status variable after the
payload, so completion notification itself runs in the background.  A
DSA engine always writes such a completion record, which the submitter
polls (``dsa_completion == "poll"``) or sleeps on (``"interrupt"``).

A descriptor's service time is the maximum of the device's streaming
rate and its (contended) share of the DRAM bus, which the copy crosses
twice; the source's dirty cache lines are flushed first and the
destination's cached copies invalidated, exactly the coherence work a
real cache-bypassing engine triggers.  Submitters go through
:func:`repro.kernel.copy.dma_copy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import HardwareError
from repro.sim.events import Event, Join
from repro.sim.resources import Channel
from repro.units import CACHE_LINE, PAGE_SIZE, ceil_div

__all__ = ["DmaDescriptor", "DmaRequest", "DmaEngine", "COMPLETION_MODES"]

#: How a DSA submitter learns that its request completed.
COMPLETION_MODES = ("poll", "interrupt")


@dataclass(frozen=True)
class DmaDescriptor:
    """One physically-contiguous copy handed to the device."""

    src_phys: int
    dst_phys: int
    nbytes: int
    #: Moves the real payload bytes when the simulated copy completes
    #: (``copy_payload``: copying untouched memory moves no bytes).
    execute: Optional[Callable[[], None]] = None


@dataclass
class DmaRequest:
    """A batch of descriptors with a single completion notification."""

    descriptors: list[DmaDescriptor]
    done: Event
    #: When True, completion is signalled by the in-order one-byte
    #: status-write descriptor (fully-background notification).
    status_write: bool = False
    submitter_core: int = -1
    #: Observability parent: per-descriptor copy spans link here.
    span: object = None

    @property
    def nbytes(self) -> int:
        return sum(d.nbytes for d in self.descriptors)


class DmaEngine:
    """A cache-bypassing copy engine attached to a :class:`Machine`.

    The I/OAT engine (the default) has ``params.dma_channels`` channels;
    each *request* is bound to one channel (round-robin), so a request's
    trailing status descriptor rides the same channel as its payload.
    With ``dsa=True`` the engine has ``params.dsa_engines`` work queues
    per socket, and a request lands on one queue of its submitter's
    socket (round-robin).
    """

    def __init__(self, engine, machine, dsa: bool = False) -> None:
        self.engine = engine
        self.machine = machine
        p = self.params = machine.topo.params
        if dsa:
            if p.dsa_completion not in COMPLETION_MODES:
                raise HardwareError(
                    f"dsa_completion must be one of {COMPLETION_MODES}, "
                    f"got {p.dsa_completion!r}"
                )
            self.name, span_prefix = "dsa", "dsa"
            self.rate = p.dsa_rate
            self.max_desc_bytes = p.dsa_max_desc_bytes
            self.doorbell, self.batch_max = p.dsa_enqueue, p.dsa_batch_max
            self.misalign_penalty = 0.0
            labels = [
                [f"s{s}e{e}" for e in range(max(1, p.dsa_engines))]
                for s in range(machine.topo.sockets)
            ]
        else:
            self.name, span_prefix = "ioat", "dma"
            self.rate = p.dma_rate
            self.max_desc_bytes = p.dma_max_desc_bytes
            self.doorbell, self.batch_max = p.dma_submit, 1
            self.misalign_penalty = p.dma_misalign_penalty
            labels = [[f"ch{c}" for c in range(max(1, p.dma_channels))]]
        #: DSA routes by the submitter's socket and always writes a
        #: completion record; I/OAT has one global group of channels.
        self._per_socket = self._completion_record = dsa
        self._copy_span = f"{span_prefix}.copy"
        #: queues[group][i] — one in-order queue per channel/engine.
        self._queues = [
            [Channel(engine, name=f"{self.name}.{label}") for label in row]
            for row in labels
        ]
        self._next = [0] * len(labels)
        self.bytes_copied = 0
        self.descriptors_processed = 0
        self.batches_submitted = 0
        self._workers = [
            engine.process(
                self._run(q, f"{span_prefix}.{label}"),
                name=f"{self.name}-engine.{label}", daemon=True,
            )
            for row, qrow in zip(labels, self._queues)
            for label, q in zip(row, qrow)
        ]

    @property
    def channels(self) -> int:
        return sum(len(row) for row in self._queues)

    # ---------------------------------------------------------- submit
    def batch_count(self, request: DmaRequest) -> int:
        """Doorbells needed to carry the request's descriptors."""
        return ceil_div(len(request.descriptors), self.batch_max)

    def submission_cost(self, request: DmaRequest) -> float:
        """CPU time the submitting context spends pushing descriptors
        to the device (doorbell writes over the I/O path)."""
        cost = self.batch_count(request) * self.doorbell
        for d in request.descriptors:
            if d.src_phys % PAGE_SIZE or d.dst_phys % PAGE_SIZE:
                cost += self.misalign_penalty
        if request.status_write:
            cost += self.doorbell  # the trailing 1-byte descriptor
        return cost

    def submit(self, request: DmaRequest) -> None:
        """Enqueue a request (submission CPU time is charged by the
        caller via :meth:`submission_cost`)."""
        if not request.descriptors:
            raise HardwareError(f"empty {self.name} request")
        group = 0
        if request.submitter_core >= 0:
            self.machine.papi.add(
                request.submitter_core, "DMA_BYTES", request.nbytes
            )
            if self._per_socket:
                group = self.machine.topo.socket_of(request.submitter_core)
        row = self._queues[group]
        queue = row[self._next[group]]
        self._next[group] = (self._next[group] + 1) % len(row)
        self.batches_submitted += self.batch_count(request)
        queue.put(request)

    # ------------------------------------------------------------ work
    def _run(self, queue: Channel, track: str):
        line = CACHE_LINE
        rate = self.rate
        line_span = self.machine.line_span
        coherence = self.machine.coherence
        memory = self.machine.memory
        obs = self.engine.obs
        while True:
            request: DmaRequest = yield queue.get()
            for desc in request.descriptors:
                src_l0, src_l1 = line_span(desc.src_phys, desc.nbytes)
                dst_l0, dst_l1 = line_span(desc.dst_phys, desc.nbytes)
                flushed = coherence.dma_read(src_l0, src_l1)
                coherence.dma_write(dst_l0, dst_l1)
                memory.charge_writebacks(flushed * line)
                # Service time: device streaming rate, but the data
                # crosses the (shared) DRAM bus twice (read + write).
                span = None
                if obs.enabled:
                    span = obs.begin(
                        self._copy_span, kind="dma", track=track,
                        parent=request.span, nbytes=desc.nbytes,
                    )
                join = Join(self.engine, 2)
                self.engine.schedule(desc.nbytes / rate, join.arrive)
                memory.dram_transfer(2 * desc.nbytes, join)
                yield join
                obs.end(span)
                if desc.execute is not None:
                    desc.execute()
                self.bytes_copied += desc.nbytes
                self.descriptors_processed += 1
            if request.status_write or self._completion_record:
                # The trailing in-order status line.
                yield self.engine.timeout(line / rate)
            request.done.succeed(self.engine.now)
