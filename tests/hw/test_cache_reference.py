"""Property tests: ExtentLRUCache must match the naive per-line LRU
reference bit-for-bit on arbitrary access sequences.

This is the cornerstone of the reproduction: Table 2's cache-miss
counts and all copy timings derive from this model.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import ExtentLRUCache

from .reference_cache import ReferenceLRUCache

# An operation: (kind, start, length, write)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["access", "access", "access", "invalidate", "downgrade"]),
        st.integers(min_value=0, max_value=40),   # start line
        st.integers(min_value=0, max_value=30),   # length
        st.booleans(),                            # write flag (access only)
    ),
    min_size=1,
    max_size=30,
)

_capacities = st.integers(min_value=1, max_value=24)


def _apply(cache, kind, start, length, write):
    end = start + length
    if kind == "access":
        return cache.access(start, end, write)
    if kind == "invalidate":
        return cache.invalidate(start, end)
    return cache.downgrade(start, end)


@settings(max_examples=400, deadline=None)
@given(capacity=_capacities, ops=_ops)
def test_extent_cache_matches_reference(capacity, ops):
    ext = ExtentLRUCache(capacity)
    ref = ReferenceLRUCache(capacity)
    for i, (kind, start, length, write) in enumerate(ops):
        got = _apply(ext, kind, start, length, write)
        want = _apply(ref, kind, start, length, write)
        if kind == "access":
            assert (got.hits, got.misses, got.writebacks) == want, (
                f"op {i}: {kind}[{start},{start+length}) write={write}: "
                f"extent={got} reference={want}"
            )
        else:
            assert got == want, f"op {i}: {kind} mismatch {got} != {want}"
        ext._check()
        assert ext.used_lines == ref.used_lines
        # Full residency comparison over the touched universe.
        assert ext.peek(0, 80) == ref.peek(0, 80), f"state diverged at op {i}"


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=4, max_value=64),
    sweeps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=1, max_value=120),  # sweeps larger than cache
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_large_sweeps_match_reference(capacity, sweeps):
    """Focus on the self-eviction regime (sweep length > capacity)."""
    ext = ExtentLRUCache(capacity)
    ref = ReferenceLRUCache(capacity)
    for start, length, write in sweeps:
        got = ext.access(start, start + length, write)
        want = ref.access(start, start + length, write)
        assert (got.hits, got.misses, got.writebacks) == want
        ext._check()
        assert ext.peek(0, 230) == ref.peek(0, 230)


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=32),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=8),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_dense_small_accesses_match_reference(capacity, ops):
    """Dense overlapping small accesses maximize extent fragmentation."""
    ext = ExtentLRUCache(capacity)
    ref = ReferenceLRUCache(capacity)
    for start, length, write in ops:
        got = ext.access(start, start + length, write)
        want = ref.access(start, start + length, write)
        assert (got.hits, got.misses, got.writebacks) == want
        ext._check()
        assert ext.peek(0, 40) == ref.peek(0, 40)


@settings(max_examples=200, deadline=None)
@given(
    capacity=_capacities,
    ops=_ops,
    probes=st.lists(
        st.tuples(st.integers(0, 80), st.integers(0, 40)), min_size=1, max_size=8
    ),
)
def test_non_sweep_api_matches_reference(capacity, ops, probes):
    """resident_lines, membership and flush's dirty count agree with
    the per-line reference in every reachable state."""
    ext = ExtentLRUCache(capacity)
    ref = ReferenceLRUCache(capacity)
    for kind, start, length, write in ops:
        _apply(ext, kind, start, length, write)
        _apply(ref, kind, start, length, write)
        for a, n in probes:
            assert ext.resident_lines(a, a + n) == ref.resident_lines(a, a + n)
        assert [line in ext for line in range(80)] == [line in ref for line in range(80)]
    assert ext.flush() == ref.flush()
    assert ext.used_lines == 0 and list(ext.iter_extents()) == []
    ext._check()


def _lru_order(cache: ExtentLRUCache) -> list[tuple[int, bool]]:
    """(line, dirty) from most to least recently used; within an extent
    recency ascends with address."""
    return [
        (line, x.dirty)
        for x in cache.iter_extents()
        for line in range(x.end - 1, x.start - 1, -1)
    ]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("capacity", [1024, 2048, 4096])
def test_deep_stacks_match_reference(capacity, seed):
    """Deep stacks: chunked 16-64-line sweeps over randomly interleaved
    disjoint buffers (so a chunk rarely lands on its predecessor in the
    stack),
    a few long re-sweeps across many extents, and invalidate/downgrade
    holes that split extents.  The full LRU order and the dirty flags
    must equal the per-line reference after every op, and the stack
    must get deep: a chunk averages 40 lines, so at least
    ``capacity // 40`` live extents (over 100 at 4k lines)."""
    rng = random.Random(seed)
    buffers = [(k * 10_000, rng.randint(256, 2048)) for k in range(rng.randint(4, 10))]
    cursors = [0] * len(buffers)
    ext = ExtentLRUCache(capacity)
    ref = ReferenceLRUCache(capacity)
    peak = 0
    for i in range(1500):
        b = rng.randrange(len(buffers))
        base, size = buffers[b]
        roll = rng.random()
        write = rng.random() < 0.8
        if roll < 0.38:
            start = base + cursors[b]
            end = min(start + rng.randint(16, 64), base + size)
            cursors[b] = (end - base + rng.randint(0, 4)) % size
            op = ("access", start, end, write)
        else:
            start = base + rng.randrange(size)
            if roll < 0.4:
                op = ("access", start, start + rng.randint(256, 1024), write)
            elif roll < 0.6:
                op = ("invalidate", start, start + rng.randint(1, 4))
            else:
                op = ("downgrade", start, start + rng.randint(1, 4))
        kind, *args = op
        got, want = getattr(ext, kind)(*args), getattr(ref, kind)(*args)
        if kind == "access":
            got = (got.hits, got.misses, got.writebacks)
        assert got == want, f"op {i}: {op}: extent={got} reference={want}"
        ext._check()
        assert _lru_order(ext) == [(line, d) for line, d in reversed(ref.od.items())], (
            f"LRU order diverged at op {i}: {op}"
        )
        peak = max(peak, sum(1 for _ in ext.iter_extents()))
    assert peak >= capacity // 40, f"only reached {peak} live extents"
