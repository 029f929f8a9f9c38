"""The I/OAT DMA engine (Intel I/O Acceleration Technology).

Sec. 3.3: a dedicated device in the memory controller that performs
memory copies in the background.  The processor neither executes the
copy nor caches the data, so I/OAT copies pollute no cache — at the
price of a per-descriptor submission cost and DRAM-speed transfers.

The engine processes descriptors strictly **in order**; the paper's
asynchronous completion trick (Sec. 3.4) exploits this by appending a
one-byte copy that writes ``Success`` into a status variable after the
payload, so completion notification itself runs in the background.

In the simulation, a descriptor's service time is the maximum of the
device's streaming rate and its (contended) share of the DRAM bus; the
source's dirty cache lines are flushed first and the destination's
cached copies invalidated, exactly the coherence work a real
cache-bypassing engine triggers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import HardwareError
from repro.sim.events import Event, Join
from repro.sim.resources import Channel
from repro.units import CACHE_LINE, PAGE_SIZE

__all__ = ["DmaDescriptor", "DmaRequest", "DmaEngine"]


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
    #: Observability parent: per-descriptor ``dma`` spans link here.
    span: object = None

    @property
    def nbytes(self) -> int:
        return sum(d.nbytes for d in self.descriptors)


class DmaEngine:
    """I/OAT engine attached to a :class:`Machine`.

    ``params.dma_channels`` independent channels process descriptors;
    each *request* is bound to one channel (round-robin), preserving
    the in-order completion property the asynchronous status-write
    trick relies on (Sec. 3.4) — ordering is per channel, and a
    request's trailing status descriptor rides the same channel as its
    payload.
    """

    def __init__(self, engine, machine) -> None:
        self.engine = engine
        self.machine = machine
        self.params = machine.topo.params
        nchan = max(1, self.params.dma_channels)
        self._queues = [
            Channel(engine, name=f"ioat.ch{c}") for c in range(nchan)
        ]
        self._next_channel = 0
        self.bytes_copied = 0
        self.descriptors_processed = 0
        self._workers = [
            engine.process(self._run(q, c), name=f"ioat-engine.ch{c}", daemon=True)
            for c, q in enumerate(self._queues)
        ]

    @property
    def channels(self) -> int:
        return len(self._queues)

    # ---------------------------------------------------------- submit
    def build_descriptors(
        self,
        segments: list[tuple[int, int, int, Optional[Callable[[], None]]]],
    ) -> list[DmaDescriptor]:
        """Split (src_phys, dst_phys, nbytes, execute) segments at the
        device's maximum descriptor size."""
        out: list[DmaDescriptor] = []
        limit = self.params.dma_max_desc_bytes
        for src, dst, nbytes, execute in segments:
            if nbytes <= 0:
                raise HardwareError(f"bad DMA segment length {nbytes}")
            offset = 0
            while offset < nbytes:
                piece = min(limit, nbytes - offset)
                # Attach the data move to the final piece of the segment.
                is_last = offset + piece >= nbytes
                out.append(
                    DmaDescriptor(
                        src + offset, dst + offset, piece, execute if is_last else None
                    )
                )
                offset += piece
        return out

    def submission_cost(self, request: DmaRequest) -> float:
        """CPU time the submitting context spends pushing descriptors
        to the device (doorbell writes over the I/O path)."""
        cost = len(request.descriptors) * self.params.dma_submit
        for d in request.descriptors:
            if d.src_phys % PAGE_SIZE or d.dst_phys % PAGE_SIZE:
                cost += self.params.dma_misalign_penalty
        if request.status_write:
            cost += self.params.dma_submit  # the trailing 1-byte descriptor
        return cost

    def submit(self, request: DmaRequest) -> None:
        """Enqueue a request (submission CPU time is charged by the
        caller via :meth:`submission_cost`)."""
        if not request.descriptors:
            raise HardwareError("empty DMA request")
        if request.submitter_core >= 0:
            self.machine.papi.add(
                request.submitter_core, "DMA_BYTES", request.nbytes
            )
        queue = self._queues[self._next_channel]
        self._next_channel = (self._next_channel + 1) % len(self._queues)
        queue.put(request)

    # ------------------------------------------------------------ work
    def _run(self, queue: Channel, chan: int):
        line = CACHE_LINE
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
                        "dma.copy", kind="dma", track=f"dma.ch{chan}",
                        parent=request.span, nbytes=desc.nbytes,
                    )
                join = Join(self.engine, 2)
                self.engine.schedule(desc.nbytes / self.params.dma_rate, join.arrive)
                memory.dram_transfer(2 * desc.nbytes, join)
                yield join
                obs.end(span)
                if desc.execute is not None:
                    desc.execute()
                self.bytes_copied += desc.nbytes
                self.descriptors_processed += 1
            if request.status_write:
                # The trailing in-order one-byte status copy.
                yield self.engine.timeout(line / self.params.dma_rate)
            request.done.succeed(self.engine.now)
