"""DSA-style memory-operation engines (Park et al.'s modern offload shape).

Where I/OAT (:mod:`repro.hw.dma`) models the Nehalem-era chipset engine
— one doorbell per descriptor, tiny descriptors, completion by status
write — a DSA-class device exposes *shared work queues*: user space
submits with a single ENQCMD per **batch descriptor** covering up to
``dsa_batch_max`` copy descriptors, each up to ``dsa_max_desc_bytes``.
The node has ``dsa_engines`` engines per socket; a request is bound to
one engine of the submitter's socket (round-robin), preserving in-order
completion per engine.

Completion is selectable (Sec. 5 of Park et al. prices both):

- ``"poll"``: the submitter spins on the completion record; detection
  latency is one ``dsa_poll_period`` and the spin burns CPU.
- ``"interrupt"``: the submitter sleeps; the device raises an interrupt
  and the waiter pays ``dsa_interrupt_latency`` once, CPU idle.

Like I/OAT, the copies bypass the caches: dirty source lines are
flushed, destination copies invalidated, and the payload crosses the
DRAM bus twice — so DSA jobs pollute no victim cache (the tenancy
story) but never go faster than memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import HardwareError
from repro.sim.events import Event, Join
from repro.sim.resources import Channel
from repro.units import CACHE_LINE, ceil_div

__all__ = ["DsaDescriptor", "DsaRequest", "DsaEngine", "COMPLETION_MODES"]

COMPLETION_MODES = ("poll", "interrupt")


@dataclass(frozen=True)
class DsaDescriptor:
    """One contiguous copy inside a batch descriptor."""

    src_phys: int
    dst_phys: int
    nbytes: int
    #: Moves the real payload bytes when the simulated copy completes
    #: (``copy_payload``: copying untouched memory moves no bytes).
    execute: Optional[Callable[[], None]] = None


@dataclass
class DsaRequest:
    """A batch of descriptors with one completion record."""

    descriptors: list[DsaDescriptor]
    done: Event
    submitter_core: int = -1
    #: Observability parent: per-descriptor ``dsa`` spans link here.
    span: object = None

    @property
    def nbytes(self) -> int:
        return sum(d.nbytes for d in self.descriptors)


class DsaEngine:
    """Per-socket memory-operation engines attached to a :class:`Machine`.

    ``params.dsa_engines`` engines per socket, each with its own shared
    work queue.  A request lands on one engine of the submitter's
    socket; within an engine, descriptors complete strictly in order.
    """

    def __init__(self, engine, machine) -> None:
        self.engine = engine
        self.machine = machine
        self.params = machine.topo.params
        if self.params.dsa_completion not in COMPLETION_MODES:
            raise HardwareError(
                f"dsa_completion must be one of {COMPLETION_MODES}, "
                f"got {self.params.dsa_completion!r}"
            )
        per_socket = max(1, self.params.dsa_engines)
        self._sockets = machine.topo.sockets
        #: queues[socket][engine] — one shared work queue per engine.
        self._queues: list[list[Channel]] = [
            [
                Channel(engine, name=f"dsa.s{s}e{e}")
                for e in range(per_socket)
            ]
            for s in range(self._sockets)
        ]
        self._next_engine = [0] * self._sockets
        self.bytes_copied = 0
        self.descriptors_processed = 0
        self.batches_submitted = 0
        self._workers = [
            engine.process(
                self._run(q, s, e), name=f"dsa-engine.s{s}e{e}", daemon=True
            )
            for s, row in enumerate(self._queues)
            for e, q in enumerate(row)
        ]

    @property
    def engines(self) -> int:
        return sum(len(row) for row in self._queues)

    # ---------------------------------------------------------- submit
    def build_descriptors(
        self,
        segments: list[tuple[int, int, int, Optional[Callable[[], None]]]],
    ) -> list[DsaDescriptor]:
        """Split (src_phys, dst_phys, nbytes, execute) segments at the
        device's maximum descriptor size; total bytes are conserved."""
        out: list[DsaDescriptor] = []
        limit = self.params.dsa_max_desc_bytes
        for src, dst, nbytes, execute in segments:
            if nbytes <= 0:
                raise HardwareError(f"bad DSA segment length {nbytes}")
            offset = 0
            while offset < nbytes:
                piece = min(limit, nbytes - offset)
                # Attach the data move to the final piece of the segment.
                is_last = offset + piece >= nbytes
                out.append(
                    DsaDescriptor(
                        src + offset, dst + offset, piece,
                        execute if is_last else None,
                    )
                )
                offset += piece
        return out

    def batch_count(self, request: DsaRequest) -> int:
        """Batch descriptors needed to carry the request."""
        return ceil_div(len(request.descriptors), self.params.dsa_batch_max)

    def submission_cost(self, request: DsaRequest) -> float:
        """CPU time the submitter spends enqueuing: one ENQCMD/doorbell
        per batch descriptor — not per copy descriptor."""
        return self.batch_count(request) * self.params.dsa_enqueue

    def submit(self, request: DsaRequest) -> None:
        """Enqueue a request on an engine of the submitter's socket
        (submission CPU time is charged by the caller via
        :meth:`submission_cost`)."""
        if not request.descriptors:
            raise HardwareError("empty DSA request")
        if request.submitter_core >= 0:
            self.machine.papi.add(
                request.submitter_core, "DMA_BYTES", request.nbytes
            )
            socket = self.machine.topo.socket_of(request.submitter_core)
        else:
            socket = 0
        row = self._queues[socket]
        queue = row[self._next_engine[socket]]
        self._next_engine[socket] = (self._next_engine[socket] + 1) % len(row)
        self.batches_submitted += self.batch_count(request)
        queue.put(request)

    # ------------------------------------------------------------ work
    def _run(self, queue: Channel, socket: int, eng: int):
        line = CACHE_LINE
        line_span = self.machine.line_span
        coherence = self.machine.coherence
        memory = self.machine.memory
        obs = self.engine.obs
        while True:
            request: DsaRequest = yield queue.get()
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
                        "dsa.copy", kind="dma", track=f"dsa.s{socket}e{eng}",
                        parent=request.span, nbytes=desc.nbytes,
                    )
                join = Join(self.engine, 2)
                self.engine.schedule(desc.nbytes / self.params.dsa_rate, join.arrive)
                memory.dram_transfer(2 * desc.nbytes, join)
                yield join
                obs.end(span)
                if desc.execute is not None:
                    desc.execute()
                self.bytes_copied += desc.nbytes
                self.descriptors_processed += 1
            # Completion record: one line written back to memory.
            yield self.engine.timeout(line / self.params.dsa_rate)
            request.done.succeed(self.engine.now)
