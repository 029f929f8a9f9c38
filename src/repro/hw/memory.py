"""Shared bandwidth resources: the DRAM controller and the FSB.

Both are processor-sharing servers (see :mod:`repro.sim.resources`):
``n`` concurrent streams each get ``1/n`` of the rate.  This is what
creates the paper's Sec. 4.4 effect — eight Alltoall ranks saturate the
memory system, so cache-polluting strategies degrade earlier and the
I/OAT crossover moves from ~1 MiB down to ~200 KiB.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.params import HwParams
from repro.sim.engine import Engine
from repro.sim.events import Event, Join
from repro.sim.resources import ProcessorSharing

__all__ = ["MemorySystem"]


class MemorySystem:
    """The node's shared memory paths."""

    def __init__(self, engine: Engine, params: HwParams) -> None:
        self.engine = engine
        self.params = params
        #: DRAM controller: all cache-miss fills, writebacks and DMA.
        self.dram_bus = ProcessorSharing(engine, params.dram_bus_rate, name="dram")
        #: Front-side bus: cache-to-cache (snoop) transfers.
        self.fsb = ProcessorSharing(engine, params.fsb_rate, name="fsb")
        self._background_bytes = 0.0

    def dram_transfer(self, nbytes: float, join: Optional[Join] = None) -> Optional[Event]:
        """Foreground DRAM traffic; yield the event to wait for it (or
        the ``join`` it counts down)."""
        return self.dram_bus.request(nbytes, join)

    def fsb_transfer(self, nbytes: float, join: Optional[Join] = None) -> Optional[Event]:
        """Foreground cache-to-cache traffic."""
        return self.fsb.request(nbytes, join)

    def charge_writebacks(self, nbytes: float) -> None:
        """Background DRAM traffic (dirty writebacks drain from the
        buffers asynchronously): consumes bandwidth, nobody waits."""
        if nbytes > 0:
            self._background_bytes += nbytes
            self.dram_bus.request(nbytes, detached=True)

    @property
    def background_bytes(self) -> float:
        """Total writeback traffic charged so far (diagnostics)."""
        return self._background_bytes
