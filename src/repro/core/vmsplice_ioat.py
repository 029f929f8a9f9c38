"""Experimental: vmsplice with I/OAT offload (the Sec. 6 future work).

"One of the major advantages to the vmsplice approach [...] is its
ubiquity [...] However, the KNEM I/OAT offload support shows much
higher performance in certain scenarios [...]  Future work in this
area will involve examining the feasibility of integrating I/OAT
offloading into vmsplice-based transfers."

This backend implements that integration in the simulator: the sender
splices its pages into the per-pair pipe as usual; the receiver
*detaches* the spliced pages from the pipe (no copy) and submits DMA
descriptors moving them straight into the destination buffer.  The
pipe's 64 KiB capacity still chunks the stream, so the per-chunk
descriptor submissions cost more than KNEM+I/OAT's batched submission —
measurably so, which is presumably why the authors left it as future
work.
"""

from __future__ import annotations

from repro.core.lmt import LmtBackend, TransferSide
from repro.core.shm import _IovecWriter
from repro.core.vmsplice import VmspliceLmt
from repro.kernel.copy import dma_copy

__all__ = ["VmspliceIoatLmt"]


class VmspliceIoatLmt(LmtBackend):
    """Pipe splice on the send side, DMA drain on the receive side."""

    name = "vmsplice+ioat"
    receiver_sends_done = True  # sender pages are read by the DMA engine

    def __init__(self) -> None:
        self._sender = VmspliceLmt(use_writev=False)

    # ------------------------------------------------------------ sender
    def sender_on_cts(self, side: TransferSide, cts_info: dict):
        # Identical to plain vmsplice: attach pages chunk by chunk.
        yield from self._sender.sender_on_cts(side, cts_info)

    # ---------------------------------------------------------- receiver
    def receiver_transfer(self, side: TransferSide, rts_info: dict):
        machine = side.machine
        pipe = side.world.pipe(side.peer_rank, side.rank)
        writer = _IovecWriter(side.views)
        received = 0
        while received < side.nbytes:
            budget = min(machine.params.pipe_capacity, side.nbytes - received)
            src_views = yield from pipe.detach(side.core, budget)
            taken = sum(v.nbytes for v in src_views)
            dst_views = writer.take(taken)
            # The DMA engine writes user memory: the destination chunk
            # must be pinned (same rule as KNEM's I/OAT path).
            pages = sum(v.npages for v in dst_views)
            pin_cost = pages * machine.params.t_pin_page
            machine.papi.add(side.core, "PAGES_PINNED", pages)
            machine.papi.add(side.core, "CPU_BUSY", pin_cost)
            yield machine.cores[side.core].busy(pin_cost)
            request = yield from dma_copy(
                machine.dma, side.core, dst_views, src_views
            )
            yield request.done
            received += taken
        return self.name
