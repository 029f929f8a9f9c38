"""The coherence snoop filter: a superset of the holders, and invisible.

Random multi-die read / write / DMA sequences over ranges that span
several 64 KiB regions, into caches small enough to evict.  After every
op, any die whose cache holds a line of region ``r`` must have its bit
set in ``r``'s mask, and the filtered domain must agree with one that
snoops every remote cache: same breakdowns, same DMA returns, same
cache contents and the same PAPI counters.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw import xeon_e5345
from repro.hw.cache import ExtentLRUCache
from repro.hw.coherence import REGION_LINES, CoherenceDomain, _remote_only, _union
from repro.hw.counters import EVENTS, Papi

from .reference_coherence import (
    SnoopAllDomain,
    _merge_segments,
    _overlap_count,
    _subtract_segments,
)

R = REGION_LINES

_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "dma_read", "dma_write"]),
        st.integers(0, 7),  # core (ignored for dma)
        # Starts on, just off and between region boundaries.
        st.one_of(
            st.integers(0, 4 * R),
            st.sampled_from([0, R, 2 * R, R - 1, R + 1, 3 * R - 5]),
        ),
        st.one_of(st.integers(1, 2 * R + 8), st.sampled_from([R, 2 * R, 1])),
    ),
    min_size=1,
    max_size=30,
)


def _domain(cls, capacity):
    topo = xeon_e5345()
    caches = [ExtentLRUCache(capacity, name=f"d{d}") for d in range(topo.ndies)]
    return cls(topo, caches, Papi(topo.ncores))


def _mask(dom, region):
    return dom._masks.get(region, 0)


def _check_superset(dom):
    for die, cache in enumerate(dom.caches):
        for extent in cache.iter_extents():
            for r in range(extent.start // R, (extent.end - 1) // R + 1):
                assert _mask(dom, r) >> die & 1, (
                    f"die {die} holds {extent} but region {r} "
                    f"mask is {_mask(dom, r):04b}"
                )


@settings(max_examples=200, deadline=None)
# A write that covers region 1 whole clears the other dies' bits there.
@example(
    ops=[("read", 0, 0, 3 * R), ("write", 4, R, R), ("read", 6, R, R)],
    capacity=4 * R,
)
# A write that covers region 0 only in part must keep die 0's bit there.
@example(ops=[("read", 0, 0, 2 * R), ("write", 4, R // 2, 2 * R)], capacity=4 * R)
# Two remote caches return segments (overlapping) and the local cache
# holds part of them: the union-then-subtract branch of the stream.
@example(
    ops=[("read", 0, 0, 2 * R), ("read", 2, R, 2 * R), ("read", 4, R // 2, R),
         ("read", 4, 0, 3 * R), ("write", 6, R // 4, 2 * R)],
    capacity=4 * R,
)
# One remote segment spans two local pieces, and DRAM serves the rest:
# every local piece inside it must be subtracted.
@example(
    ops=[("read", 4, 0, R // 4), ("read", 4, R // 2, R // 4), ("read", 0, 0, R),
         ("read", 4, 0, 2 * R)],
    capacity=4 * R,
)
# Capacity evictions leave stale bits: still a superset.
@example(ops=[("read", 0, 0, R), ("read", 0, 2 * R, R), ("read", 2, 0, R)], capacity=R)
@given(ops=_ops, capacity=st.sampled_from([64, R // 2, R, 3 * R]))
def test_snoop_filter_is_a_superset_and_changes_nothing(ops, capacity):
    dom = _domain(CoherenceDomain, capacity)
    ref = _domain(SnoopAllDomain, capacity)
    for i, (kind, core, start, length) in enumerate(ops):
        end = start + length
        if kind in ("read", "write"):
            got = getattr(dom, kind)(core, start, end)
            want = getattr(ref, kind)(core, start, end)
        else:
            got = getattr(dom, kind)(start, end)
            want = getattr(ref, kind)(start, end)
        assert got == want, f"op {i}: {kind}({core}, {start}, {end}): {got} != {want}"
        _check_superset(dom)
        for a, b in zip(dom.caches, ref.caches):
            assert list(a.iter_extents()) == list(b.iter_extents()), f"op {i}"
    for c in range(dom.topo.ncores):
        for event in EVENTS:
            assert dom.papi.read(c, event) == ref.papi.read(c, event), (c, event)


def test_filter_skips_caches_that_never_held_the_region():
    """A stream over a region no other die touched peeks no remote
    cache, and a write over a whole region leaves only the writer."""
    dom = _domain(CoherenceDomain, 4 * R)
    peeked = []
    for cache in dom.caches:
        original = cache.peek
        cache.peek = lambda s, e, _c=cache, _o=original: peeked.append(_c.name) or _o(s, e)
    dom.read(0, 0, R)  # die 0
    dom.read(2, 0, R)  # die 1 snoops die 0 only
    assert peeked == ["d0", "d1"]  # the remote snoop, then the local peek
    assert _mask(dom, 0) == 0b0011
    peeked.clear()
    dom.write(4, 0, R)  # die 2 invalidates dies 0 and 1
    assert peeked == ["d0", "d1", "d2"]
    assert _mask(dom, 0) == 0b0100
    peeked.clear()
    dom.read(6, 2 * R, 3 * R)  # a fresh region: no snoop at all
    assert peeked == []
    dom.dma_write(0, R)
    assert _mask(dom, 0) == 0


def _recording_peeks(dom):
    """Wrap every cache's peek to log (cache name, segments found)."""
    log = []
    for cache in dom.caches:
        original = cache.peek

        def peek(s, e, _c=cache, _o=original):
            found = _o(s, e)
            log.append((_c.name, found))
            return found

        cache.peek = peek
    return log


@pytest.mark.parametrize("write", [False, True])
def test_several_remote_holders_and_a_partial_local_copy(write):
    """Dies 0 and 1 hold overlapping parts of a range and die 2 holds a
    piece of it: die 2's stream unions the two remote peeks and counts
    as remote hits only the lines its own cache lacks."""
    dom = _domain(CoherenceDomain, 4 * R)
    ref = _domain(SnoopAllDomain, 4 * R)
    setup = [(0, 0, 2 * R), (2, R, 3 * R), (4, R // 2, R)]
    for d in (dom, ref):
        for core, start, end in setup:
            d.read(core, start, end)
    log = _recording_peeks(dom)
    got = getattr(dom, "write" if write else "read")(4, 0, 3 * R)
    want = getattr(ref, "write" if write else "read")(4, 0, 3 * R)
    # Both remote peeks found lines, then the local peek found its piece.
    assert [name for name, _ in log] == ["d0", "d1", "d2"]
    assert log[0][1] == [(0, 2 * R, False)]
    assert log[1][1] == [(R, 3 * R, False)]
    assert log[2][1] == [(R // 2, R, False)]
    assert got == want
    assert got.local_hits == R // 2
    assert got.remote_hits == 3 * R - R // 2
    assert got.dram_lines == 0


def _peeked(bounds, dirty):
    """Sorted disjoint (start, end, dirty) segments, as a peek returns."""
    bounds = sorted(set(bounds))
    return [
        (a, b, d) for (a, b), d in zip(zip(bounds[::2], bounds[1::2]), dirty)
    ]


_segments = st.builds(
    _peeked,
    st.lists(st.integers(0, 60), max_size=12),
    st.lists(st.booleans(), min_size=6, max_size=6),
)


@settings(max_examples=300, deadline=None)
@example(remote=[[(0, 20, False)]], local=[(2, 5, False), (8, 12, True)])
@example(remote=[[(0, 10, False), (20, 30, True)]], local=[(5, 25, False)])
@example(remote=[[(0, 10, False)], [(5, 15, True)], [(30, 40, False)]], local=[(8, 32, True)])
@given(remote=st.lists(_segments, min_size=1, max_size=3), local=_segments)
def test_one_pass_count_matches_segment_algebra(remote, local):
    """``_remote_only`` over one cache's peek, or the ``_union`` of
    several, counts what the merge / subtract / overlap algebra does."""
    found = [segs for segs in remote if segs]
    if not found:
        return
    pairs = [(a, b) for segs in found for a, b, _ in segs]
    gaps = _subtract_segments((0, 61), _merge_segments([(a, b) for a, b, _ in local]))
    want = _overlap_count(gaps, _merge_segments(pairs))
    segments = found[0] if len(found) == 1 else _union(sum(found, []))
    assert _remote_only(segments, local) == want
