"""MESI-lite coherence across the per-die caches.

The copy engines ask this domain to perform *streams* — bulk reads and
writes of physical line ranges on behalf of a core — and get back a
breakdown of where the lines were served from:

- ``local_hits``   — the core's own L2 (cheap),
- ``remote_hits``  — another die's L2, transferred over the FSB (snoop),
- ``dram_lines``   — memory,
- ``writeback_lines`` — dirty evictions/downgrades this stream caused
  (bus traffic that the memory model charges in the background).

A stream snoops the remote caches first.  Only when one of them holds
part of the range does it peek the local cache to find which remote
lines the local cache lacks; otherwise every miss is served by DRAM.

A **snoop filter** spares most of those probes.  The domain keeps one
bitmask per 64 KiB region of lines (:data:`REGION_LINES`): bit ``d`` is
set whenever die ``d``'s cache accesses a line of the region, so the
mask is a superset of the dies that may hold one.  A stream snoops, and
the DMA paths flush or invalidate, only the caches whose bit is set in
the regions the range touches; a cache whose bit is clear holds none of
those lines, so skipping it changes no result.  A bit is cleared only
where that is exact: a write or a DMA write that invalidated every
remote copy of a range leaves the regions it covers whole with no
remote holder.  Evictions leave bits set (a superset is still right).

Protocol simplifications (documented in DESIGN.md): lines may be shared
by several caches; a write invalidates all remote copies; a remote read
of a dirty line forces a writeback and leaves the owner with a clean
(shared) copy; DMA traffic bypasses caches but flushes dirty overlap on
reads and invalidates on writes.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import HardwareError
from repro.hw.cache import ExtentLRUCache
from repro.hw.counters import Papi
from repro.hw.topology import TopologySpec

__all__ = ["StreamBreakdown", "CoherenceDomain", "REGION_LINES"]

#: Snoop-filter granularity: 2**10 lines, 64 KiB of 64-byte lines.
REGION_SHIFT = 10
REGION_LINES = 1 << REGION_SHIFT


class StreamBreakdown(NamedTuple):
    """Where the lines of one bulk stream were served from."""

    local_hits: int
    remote_hits: int
    dram_lines: int
    writeback_lines: int
    #: Lines whose remote (shared) copies a write had to invalidate:
    #: ownership-upgrade transactions on the FSB.
    upgrade_lines: int = 0

    @property
    def lines(self) -> int:
        return self.local_hits + self.remote_hits + self.dram_lines

    @property
    def misses(self) -> int:
        return self.remote_hits + self.dram_lines

    def __add__(self, other: "StreamBreakdown") -> "StreamBreakdown":
        # Field-wise, not the tuple concatenation NamedTuple inherits.
        return _new(StreamBreakdown, (
            self.local_hits + other.local_hits,
            self.remote_hits + other.remote_hits,
            self.dram_lines + other.dram_lines,
            self.writeback_lines + other.writeback_lines,
            self.upgrade_lines + other.upgrade_lines,
        ))


ZERO_BREAKDOWN = StreamBreakdown(0, 0, 0, 0, 0)

#: ``_new(StreamBreakdown, fields)`` builds a breakdown in one C call,
#: skipping the Python-level ``__new__`` NamedTuple generates.
_new = tuple.__new__


def _subtract_segments(
    universe: tuple[int, int], segments: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Portions of ``universe`` not covered by ``segments`` (sorted,
    non-overlapping)."""
    out = []
    cursor, end = universe
    for a, b in segments:
        if a > cursor:
            out.append((cursor, min(a, end)))
        cursor = max(cursor, b)
        if cursor >= end:
            break
    if cursor < end:
        out.append((cursor, end))
    return [(a, b) for a, b in out if a < b]


def _whole_regions(start: int, end: int) -> range:
    """The regions that lie wholly inside lines [start, end)."""
    return range((start + REGION_LINES - 1) >> REGION_SHIFT, end >> REGION_SHIFT)


def _merge_segments(segments: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not segments:
        return []
    segments = sorted(segments)
    out = [list(segments[0])]
    for a, b in segments[1:]:
        if a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def _overlap_count(
    segs_a: list[tuple[int, int]], segs_b: list[tuple[int, int]]
) -> int:
    total = 0
    for a1, b1 in segs_a:
        for a2, b2 in segs_b:
            lo, hi = max(a1, a2), min(b1, b2)
            if lo < hi:
                total += hi - lo
    return total


class CoherenceDomain:
    """Coordinates the per-die caches and the PAPI counters."""

    def __init__(
        self, topo: TopologySpec, caches: list[ExtentLRUCache], papi: Papi
    ) -> None:
        if len(caches) != topo.ndies:
            raise ValueError(f"expected {topo.ndies} caches, got {len(caches)}")
        self.topo = topo
        self.caches = caches
        self.papi = papi
        #: core -> (its die, its PAPI counter set), for the valid cores.
        self._cores = {c: (topo.die_of(c), papi[c]) for c in range(topo.ncores)}
        #: Optional multi-tenant interference probe (duck-typed: needs
        #: ``pre_access(die, start, end)`` and ``post_access(die, start,
        #: end, token)``).  Installed by :mod:`repro.sched` to attribute
        #: capacity evictions to the co-located job that caused them;
        #: ``None`` (the default) costs one attribute check per stream.
        self.interference = None
        #: The snoop filter: region -> bitmask of dies that may hold a
        #: line of it (absent means none).
        self._masks: dict[int, int] = {}
        #: Bitmask -> the caches of its dies, in die order.
        self._holders: dict[int, tuple[ExtentLRUCache, ...]] = {}

    def _caches_in(self, mask: int) -> tuple[ExtentLRUCache, ...]:
        holders = self._holders.get(mask)
        if holders is None:
            holders = self._holders[mask] = tuple(
                cache for d, cache in enumerate(self.caches) if mask >> d & 1
            )
        return holders

    def _mask_of(self, start: int, end: int) -> int:
        """Dies that may hold a line of [start, end)."""
        masks = self._masks
        mask = 0
        for r in range(start >> REGION_SHIFT, ((end - 1) >> REGION_SHIFT) + 1):
            mask |= masks.get(r, 0)
        return mask

    def cache_of(self, core: int) -> ExtentLRUCache:
        return self.caches[self.topo.die_of(core)]

    # ------------------------------------------------------------ CPU --
    def read(self, core: int, start: int, end: int) -> StreamBreakdown:
        """Core ``core`` streams a read over physical lines [start, end)."""
        return self._stream(core, start, end, write=False)

    def write(self, core: int, start: int, end: int) -> StreamBreakdown:
        """Core ``core`` streams a write (write-allocate: misses fetch
        the line first, remote copies are invalidated)."""
        return self._stream(core, start, end, write=True)

    def _stream(self, core: int, start: int, end: int, write: bool) -> StreamBreakdown:
        if start >= end:
            return ZERO_BREAKDOWN
        try:
            die, counters = self._cores[core]
        except KeyError:
            raise HardwareError(f"core {core} out of range for {self.topo.name}") from None
        local = self.caches[die]
        bit = 1 << die
        # The filter, inlined: dies that may hold a line of the regions
        # this stream touches.
        masks = self._masks
        regions = range(start >> REGION_SHIFT, ((end - 1) >> REGION_SHIFT) + 1)
        remote = 0
        for r in regions:
            remote |= masks.get(r, 0)
        remote &= ~bit

        # Snoop the remote caches first: they never touch the local
        # cache, so its peek below sees the same state either way.
        remote_segments: list[tuple[int, int]] = []
        writebacks = 0
        invalidated = 0
        for cache in self._caches_in(remote):
            found = cache.peek(start, end)
            if not found:
                continue
            for a, b, _ in found:
                remote_segments.append((a, b))
            if write:
                # RFO: invalidate every remote copy; dirty data is
                # transferred to the requester, so no memory writeback,
                # but we still count clean-up of M lines as bus traffic.
                lines, dirty_lines = cache.invalidate(start, end)
                writebacks += dirty_lines
                invalidated += lines
            else:
                # Shared read: the owner keeps a clean copy; dirty lines
                # are written back to memory (M -> S, HITM implicit
                # writeback on FSB platforms).
                writebacks += cache.downgrade(start, end)
        if remote_segments:
            # Lines a remote cache holds but the local one lacks.
            local_segments = [(a, b) for a, b, _ in local.peek(start, end)]
            gaps = _subtract_segments((start, end), _merge_segments(local_segments))
            remote_only = _overlap_count(gaps, _merge_segments(remote_segments))
        else:
            remote_only = 0

        probe = self.interference
        token = probe.pre_access(die, start, end) if probe is not None else None
        hits, misses, result_wb = local.access(start, end, write=write)
        if probe is not None:
            probe.post_access(die, start, end, token)
        writebacks += result_wb
        # This die now holds lines of every region the stream touched.
        # After a write no other cache holds any line of the range, so
        # the regions it covers whole are held by this die alone.
        whole = _whole_regions(start, end) if write else ()
        for r in regions:
            masks[r] = bit if r in whole else masks.get(r, 0) | bit

        remote_hits = min(misses, remote_only)
        dram = misses - remote_hits
        # Upgrades: remote copies invalidated for lines we already had
        # (the write-hit-on-shared case); RFO-fetched lines are already
        # counted in remote_hits.
        upgrades = max(0, invalidated - remote_hits) if write else 0

        counters.add_stream(hits, misses, remote_hits, dram, writebacks)
        return _new(StreamBreakdown, (hits, remote_hits, dram, writebacks, upgrades))

    # ------------------------------------------------------------ DMA --
    def dma_read(self, start: int, end: int) -> int:
        """DMA engine reads lines [start, end) from memory.

        Dirty cached copies must reach memory first; returns the number
        of lines written back (bus traffic).  Clean copies may stay.
        """
        flushed = 0
        for cache in self._caches_in(self._mask_of(start, end)):
            flushed += cache.downgrade(start, end)
        return flushed

    def dma_write(self, start: int, end: int) -> int:
        """DMA engine writes lines [start, end) to memory; all cached
        copies become stale and are invalidated.  Returns lines dropped."""
        dropped = 0
        for cache in self._caches_in(self._mask_of(start, end)):
            resident, _ = cache.invalidate(start, end)
            dropped += resident
        # No cache holds a line of the regions the range covers whole.
        masks = self._masks
        for r in _whole_regions(start, end):
            masks.pop(r, None)
        return dropped
