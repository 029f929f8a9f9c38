"""Hardware model: topology, caches, coherence, memory bus, copy engines.

This subpackage simulates the machine the paper ran on — a dual-socket
quad-core Intel Xeon E5345 where each pair of cores shares a 4 MiB L2 —
at the granularity the paper reasons about: cache lines, shared caches,
the front-side bus, and the I/OAT DMA engine (plus, on modern presets,
a DSA-class engine built from the same :class:`~repro.hw.dma.DmaEngine`).

The static description of a machine is a :class:`~repro.hw.topology.TopologySpec`
(see :mod:`repro.hw.presets` for the paper's hosts).  A runtime
:class:`~repro.hw.machine.Machine` binds that description to a simulation
engine: per-core processor-sharing resources, per-die extent-LRU caches,
a coherence domain, bus bandwidth resources, the copy engines and PAPI-like
counters.
"""

from repro.hw.cache import AccessResult, ExtentLRUCache
from repro.hw.coherence import CoherenceDomain, StreamBreakdown
from repro.hw.counters import CounterSet, Papi
from repro.hw.dma import DmaDescriptor, DmaEngine, DmaRequest
from repro.hw.machine import Machine
from repro.hw.memory import MemorySystem
from repro.hw.params import HwParams
from repro.hw.presets import (
    cluster_of,
    modern_server,
    nehalem8,
    xeon_e5345,
    xeon_x5460,
)
from repro.hw.topology import TopologySpec

__all__ = [
    "AccessResult",
    "ExtentLRUCache",
    "CoherenceDomain",
    "StreamBreakdown",
    "CounterSet",
    "Papi",
    "DmaDescriptor",
    "DmaEngine",
    "DmaRequest",
    "Machine",
    "MemorySystem",
    "HwParams",
    "TopologySpec",
    "cluster_of",
    "xeon_e5345",
    "xeon_x5460",
    "nehalem8",
    "modern_server",
]
