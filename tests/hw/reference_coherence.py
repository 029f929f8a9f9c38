"""A coherence domain without a snoop filter: the reference for it.

Every CPU stream peeks every remote cache, and the DMA paths flush or
invalidate every cache, as the domain did before it kept per-region
holder masks.  ``tests/hw/test_snoop_filter.py`` checks that the
filtered domain returns the same breakdowns, DMA results and PAPI
counters.
"""

from repro.hw.coherence import (
    ZERO_BREAKDOWN,
    CoherenceDomain,
    StreamBreakdown,
    _merge_segments,
    _overlap_count,
    _subtract_segments,
)


class SnoopAllDomain(CoherenceDomain):
    def _stream(self, core, start, end, write):
        if start >= end:
            return ZERO_BREAKDOWN
        die = self.topo.die_of(core)
        local = self.caches[die]
        remote_segments = []
        writebacks = invalidated = 0
        for other_die, cache in enumerate(self.caches):
            if other_die == die:
                continue
            found = cache.peek(start, end)
            if not found:
                continue
            remote_segments.extend((a, b) for a, b, _ in found)
            if write:
                lines, dirty_lines = cache.invalidate(start, end)
                writebacks += dirty_lines
                invalidated += lines
            else:
                writebacks += cache.downgrade(start, end)
        if remote_segments:
            local_segments = [(a, b) for a, b, _ in local.peek(start, end)]
            gaps = _subtract_segments((start, end), _merge_segments(local_segments))
            remote_only = _overlap_count(gaps, _merge_segments(remote_segments))
        else:
            remote_only = 0
        hits, misses, result_wb = local.access(start, end, write=write)
        writebacks += result_wb
        remote_hits = min(misses, remote_only)
        dram = misses - remote_hits
        upgrades = max(0, invalidated - remote_hits) if write else 0
        self.papi[core].add_stream(hits, misses, remote_hits, dram, writebacks)
        return StreamBreakdown(hits, remote_hits, dram, writebacks, upgrades)

    def dma_read(self, start, end):
        return sum(cache.downgrade(start, end) for cache in self.caches)

    def dma_write(self, start, end):
        return sum(cache.invalidate(start, end)[0] for cache in self.caches)
