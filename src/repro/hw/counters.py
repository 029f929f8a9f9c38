"""PAPI-like hardware event counters.

The paper measures L2 cache misses with PAPI (Table 2).  The simulator
maintains the equivalent counters per core; :class:`Papi` provides the
read-out facade used by the benchmark tables.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.errors import HardwareError

__all__ = ["CounterSet", "Papi", "EVENTS"]

#: Supported event names.
EVENTS = (
    "L2_HITS",          # lines served by the local L2
    "L2_MISSES",        # lines not in the local L2 (remote cache or DRAM)
    "REMOTE_HITS",      # subset of misses served by another cache (snoop)
    "DRAM_LINES",       # subset of misses served by DRAM
    "WRITEBACKS",       # dirty lines written back
    "BYTES_COPIED",     # bytes moved by CPU copies on this core
    "SYSCALLS",         # syscall count
    "PAGES_PINNED",     # pages pinned by the kernel
    "DMA_BYTES",        # bytes this core offloaded to the DMA engine
    "CPU_BUSY",         # seconds of CPU time consumed (float)
)
_EVENT_SET = frozenset(EVENTS)


class CounterSet:
    """Event counters for one core."""

    __slots__ = ("core", "_values")

    def __init__(self, core: int) -> None:
        self.core = core
        self._values: dict[str, float] = defaultdict(float)

    def add(self, event: str, amount: float = 1) -> None:
        if event not in _EVENT_SET:
            raise HardwareError(f"unknown counter event {event!r}")
        self._values[event] += amount

    def add_stream(
        self, hits: int, misses: int, remote_hits: int, dram_lines: int, writebacks: int
    ) -> None:
        """Add one coherence stream's five cache counters in one call."""
        values = self._values
        values["L2_HITS"] += hits
        values["L2_MISSES"] += misses
        values["REMOTE_HITS"] += remote_hits
        values["DRAM_LINES"] += dram_lines
        values["WRITEBACKS"] += writebacks

    def read(self, event: str) -> float:
        if event not in _EVENT_SET:
            raise HardwareError(f"unknown counter event {event!r}")
        return self._values[event]

    def snapshot(self) -> dict[str, float]:
        return {e: self._values[e] for e in EVENTS}

    def reset(self) -> None:
        self._values.clear()


class Papi:
    """Per-core counter registry with PAPI-flavoured accessors."""

    def __init__(self, ncores: int) -> None:
        self._sets = [CounterSet(core) for core in range(ncores)]

    def __getitem__(self, core: int) -> CounterSet:
        return self._sets[core]

    def add(self, core: int, event: str, amount: float = 1) -> None:
        self._sets[core].add(event, amount)

    def read(self, core: int, event: str) -> float:
        return self._sets[core].read(event)

    def total(self, event: str, cores: Iterable[int] | None = None) -> float:
        cores = range(len(self._sets)) if cores is None else cores
        return sum(self._sets[c].read(event) for c in cores)

    def totals(self) -> dict[str, float]:
        """:meth:`total` of every event over all cores, in one pass.

        Adds in core order like :meth:`total`; events a core never
        counted add nothing, so every float is the same.
        """
        out = dict.fromkeys(EVENTS, 0.0)
        for s in self._sets:
            for event, value in s._values.items():
                out[event] += value
        return out

    def reset(self) -> None:
        for s in self._sets:
            s.reset()

    def snapshot(self) -> list[dict[str, float]]:
        return [s.snapshot() for s in self._sets]
