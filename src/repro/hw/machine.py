"""Runtime machine: topology bound to a simulation engine.

A :class:`Machine` owns every stateful hardware object of one
simulation run: per-core processor-sharing resources, per-die caches,
the coherence domain, the memory system, the I/OAT engine, the PAPI
counters and the physical page allocator.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hw.cache import ExtentLRUCache
from repro.hw.coherence import REGION_LINES, CoherenceDomain
from repro.hw.counters import Papi
from repro.hw.dma import DmaEngine
from repro.hw.dsa import DsaEngine
from repro.hw.memory import MemorySystem
from repro.hw.topology import TopologySpec
from repro.sim.engine import Engine
from repro.sim.resources import ProcessorSharing
from repro.units import CACHE_LINE, PAGE_SIZE, align_up

__all__ = ["Machine"]

_REGION_BYTES = REGION_LINES * CACHE_LINE


class Machine:
    """All runtime hardware state for one simulation."""

    def __init__(self, engine: Engine, topo: TopologySpec) -> None:
        self.engine = engine
        self.topo = topo
        self.params = topo.params
        self.cores = [
            ProcessorSharing(engine, 1.0, name=f"core{i}")
            for i in range(topo.ncores)
        ]
        self.caches = [
            ExtentLRUCache(topo.l2_lines, name=f"L2.die{d}")
            for d in range(topo.ndies)
        ]
        self.papi = Papi(topo.ncores)
        self.coherence = CoherenceDomain(topo, self.caches, self.papi)
        self.memory = MemorySystem(engine, topo.params)
        self.dma = DmaEngine(engine, self)
        # DSA engines exist only on presets that declare them; legacy
        # machines stay byte-identical (no extra daemon processes).
        self.dsa = DsaEngine(engine, self) if topo.params.dsa_engines > 0 else None
        self._phys_cursor = PAGE_SIZE  # keep physical address 0 unmapped

    # -------------------------------------------------- physical memory
    def alloc_phys(self, nbytes: int, align: int = PAGE_SIZE) -> int:
        """Reserve a physically-contiguous range; returns its base address.

        ``align`` must be a positive power of two; page-aligned by
        default, which matters to the DMA path (the misalignment
        penalty models the paper's Sec. 4.2 note).  Every range also
        starts on a snoop-filter region boundary (64 KiB), so no region
        holds lines of two allocations and a stream over one buffer
        never snoops a cache for another's lines.  The L2 model is fully
        associative, so no hit or miss depends on where a range lies.
        """
        if nbytes <= 0:
            raise HardwareError(f"allocation size must be positive: {nbytes}")
        if not isinstance(align, int) or align <= 0 or align & (align - 1):
            raise HardwareError(f"alignment must be a positive power of two: {align!r}")
        base = align_up(self._phys_cursor, max(align, _REGION_BYTES))
        self._phys_cursor = base + nbytes
        return base

    @staticmethod
    def line_span(phys: int, nbytes: int) -> tuple[int, int]:
        """The [first, last) cache-line numbers covering a byte range."""
        if nbytes <= 0:
            return (phys // CACHE_LINE, phys // CACHE_LINE)
        return phys // CACHE_LINE, -(-(phys + nbytes) // CACHE_LINE)

    # ----------------------------------------------------------- sugar
    def core(self, index: int) -> ProcessorSharing:
        return self.cores[index]

    def cache_of_core(self, core: int) -> ExtentLRUCache:
        return self.caches[self.topo.die_of(core)]

    def describe(self) -> str:
        return self.topo.describe()
