"""How fast the host runs this interpreter right now.

The benchmark runs on shared machines whose other tenants slow a
process down by up to half, in spells of seconds to minutes, and the
slowdown shows up as user CPU time, not as steal.  No reading of the
clock can tell that apart from a slower program.  :meth:`HostSpeed.sample`
times :func:`reference`, a fixed pure-Python computation shaped like
the simulator, and :func:`scale` turns a wall time measured beside
samples into seconds at a fixed host speed: the one at which
:func:`reference` takes :data:`REFERENCE_S`.

The reference has two halves.  One stays in the core's own caches: a
heap-ordered event loop over generator processes, dict updates and
small objects.  The other looks up random keys in a dict of
:data:`TABLE_KEYS` entries (about 12 MiB), as the simulator's larger
working sets do.  Contention slows the first more than the simulator
and the second less, so their sum tracks it best (measured on every
workload's ops on a 2-vCPU shared VM).

The reference does not import ``repro``, so no change to the program
can change it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Seconds :func:`reference` takes when other tenants leave the host
#: alone (the fifth percentile of 400 samples over 35 s on a 2-vCPU
#: Xeon VM, 2.1 GHz, Python 3.11; the median was 0.031): the unit of
#: every scaled time.
REFERENCE_S = 0.025
TABLE_KEYS = 200_000


class _Event:
    __slots__ = ("when", "seq", "proc")

    def __init__(self, when: float, seq: int, proc) -> None:
        self.when, self.seq, self.proc = when, seq, proc

    def __lt__(self, other: "_Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _process(key: int, totals: dict):
    x = key
    for _ in range(80):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        totals[key & 63] = totals.get(key & 63, 0.0) + (x & 255) * 1e-9
        yield (x & 1023) * 1e-6


def reference(table: dict) -> int:
    """A fixed computation: 3200 events of 40 processes, heap churn, then
    30000 lookups of random keys in ``table`` (from :func:`make_table`)."""
    heap: list = []
    totals: dict = {}
    for key in range(40):
        heapq.heappush(heap, _Event(0.0, key, _process(key, totals)))
    seq = 40
    while heap:
        event = heapq.heappop(heap)
        try:
            delay = next(event.proc)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, _Event(event.when + delay, seq, event.proc))
    for i in range(12500):
        heapq.heappush(heap, (i * 7919) % 10007)
    while heap:
        heapq.heappop(heap)
    found, x = 0, 12345
    for _ in range(30000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        found += table.get((x % TABLE_KEYS) * 7, 0)
    return seq + found


def make_table() -> dict:
    """The dict :func:`reference` looks keys up in."""
    return {key * 7: 1 for key in range(TABLE_KEYS)}


class HostSpeed:
    """Times :func:`reference` on demand; owns its table."""

    def __init__(self) -> None:
        self.table = make_table()

    def sample(self) -> float:
        """Wall seconds of one :func:`reference`, the cyclic collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference(self.table)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def scale(*samples: float) -> float:
    """Factor from wall seconds measured beside ``samples`` to seconds at
    the host speed where :func:`reference` takes :data:`REFERENCE_S`."""
    return REFERENCE_S / statistics.fmean(samples)
