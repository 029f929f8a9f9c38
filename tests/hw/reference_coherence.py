"""A coherence domain without a snoop filter: the reference for it.

Every CPU stream peeks every remote cache, and the DMA paths flush or
invalidate every cache, as the domain did before it kept per-region
holder masks.  It also counts the remote lines the local cache lacks
with the general segment algebra (merge both sides, subtract the local
segments from the range, intersect the gaps with the remote ones), not
the domain's one-pass count.  ``tests/hw/test_snoop_filter.py`` checks
that the filtered domain returns the same breakdowns, DMA results and
PAPI counters.
"""

from repro.hw.coherence import ZERO_BREAKDOWN, CoherenceDomain, StreamBreakdown


def _subtract_segments(universe, segments):
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


def _merge_segments(segments):
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


def _overlap_count(segs_a, segs_b):
    total = 0
    for a1, b1 in segs_a:
        for a2, b2 in segs_b:
            lo, hi = max(a1, a2), min(b1, b2)
            if lo < hi:
                total += hi - lo
    return total


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
