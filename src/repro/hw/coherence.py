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
part of the range does it peek the local cache, and it counts the remote
lines the local cache lacks in one pass over the peeked segments
(several caches' segments are merged first); otherwise every miss is
served by DRAM.

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

:meth:`Machine.alloc_phys <repro.hw.machine.Machine.alloc_phys>` starts
every allocation on a region boundary, so a region's bits speak for one
buffer only.  Per round of the host-time benchmark, nas-is makes 6,272
peeks (4,696 useful) and alltoall 10,441 (6,830 useful); when buffers
were packed page by page into shared regions the same rounds made
16,200 and 18,961, with the same useful ones.  Nearly all the peeks
that still find nothing (all 1,576 on nas-is, 3,563 of 3,611 on
alltoall, all 4,208 on p2p) are stale bits: the peeked cache has
evicted every line of the region since it set its bit.

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


def _whole_regions(start: int, end: int) -> range:
    """The regions that lie wholly inside lines [start, end)."""
    return range((start + REGION_LINES - 1) >> REGION_SHIFT, end >> REGION_SHIFT)


def _remote_only(remote, local) -> int:
    """Lines of ``remote`` that ``local`` does not cover: |R| - |R & L|.

    Both are sorted lists of disjoint segments whose first two fields
    are ``(start, end)``, such as :meth:`ExtentLRUCache.peek` returns.
    One pass over each: ``i`` skips the local segments that end before
    the current remote one, and every local segment overlapping it is
    subtracted (a local segment may overlap the next remote one too, so
    ``i`` does not pass it).
    """
    total = 0
    i = 0
    n = len(local)
    for seg in remote:
        a, b = seg[0], seg[1]
        total += b - a
        while i < n and local[i][1] <= a:
            i += 1
        j = i
        while j < n and local[j][0] < b:
            la, lb = local[j][0], local[j][1]
            total -= (b if b < lb else lb) - (a if a > la else la)
            j += 1
    return total


def _union(segments: list) -> list[tuple[int, int]]:
    """The disjoint, sorted union of several caches' peeked segments."""
    segments.sort()
    out = []
    for seg in segments:
        a, b = seg[0], seg[1]
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


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
        remote_segments = []
        holders = 0
        writebacks = 0
        invalidated = 0
        for cache in self._caches_in(remote):
            found = cache.peek(start, end)
            if not found:
                continue
            remote_segments += found
            holders += 1
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
        if not holders:
            remote_only = 0
        else:
            # Lines a remote cache holds but the local one lacks.  One
            # cache's peek is already sorted and disjoint; several
            # caches' may overlap and are merged first.
            if holders > 1:
                remote_segments = _union(remote_segments)
            remote_only = _remote_only(remote_segments, local.peek(start, end))

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
