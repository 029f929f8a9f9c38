"""Unit tests for the extent-LRU cache simulator."""

import pytest

from repro.errors import HardwareError
from repro.hw.cache import AccessResult, ExtentLRUCache


def mk(capacity=16):
    return ExtentLRUCache(capacity_lines=capacity, name="t")


def test_bad_capacity_rejected():
    with pytest.raises(HardwareError):
        ExtentLRUCache(0)


def test_cold_access_all_misses():
    c = mk(16)
    r = c.access(0, 8, write=False)
    assert r == AccessResult(hits=0, misses=8, writebacks=0)
    assert c.used_lines == 8
    c._check()


def test_warm_access_all_hits():
    c = mk(16)
    c.access(0, 8, write=False)
    r = c.access(0, 8, write=False)
    assert r.hits == 8 and r.misses == 0
    assert c.used_lines == 8
    c._check()


def test_partial_overlap():
    c = mk(32)
    c.access(0, 8, write=False)
    r = c.access(4, 12, write=False)
    assert r.hits == 4 and r.misses == 4
    assert c.used_lines == 12
    c._check()


def test_capacity_eviction_lru_order():
    c = mk(8)
    c.access(0, 8, write=False)      # fill
    c.access(100, 104, write=False)  # evicts lines 0..3 (deepest)
    assert c.resident_lines(0, 8) == 4
    assert c.resident_lines(4, 8) == 4   # the younger half survives
    assert c.resident_lines(100, 104) == 4
    c._check()


def test_sweep_larger_than_cache_keeps_tail():
    c = mk(8)
    r = c.access(0, 20, write=False)
    assert r.hits == 0 and r.misses == 20
    # Last 8 lines touched remain.
    assert c.resident_lines(12, 20) == 8
    assert c.used_lines == 8
    c._check()


def test_self_evicting_resweep():
    """Re-sweeping a range larger than the cache hits nothing: by the
    time each line is reached it was evicted by the sweep itself."""
    c = mk(8)
    c.access(0, 20, write=False)
    r = c.access(0, 20, write=False)
    assert r.hits == 0
    assert r.misses == 20
    c._check()


def test_resweep_exactly_cache_sized_all_hits():
    c = mk(8)
    c.access(0, 8, write=False)
    r = c.access(0, 8, write=False)
    assert r.hits == 8
    c._check()


def test_write_marks_dirty_and_eviction_writes_back():
    c = mk(8)
    c.access(0, 8, write=True)
    r = c.access(100, 108, write=False)  # evict all 8 dirty lines
    assert r.writebacks == 8
    c._check()


def test_clean_eviction_no_writeback():
    c = mk(8)
    c.access(0, 8, write=False)
    r = c.access(100, 108, write=False)
    assert r.writebacks == 0


def test_read_hit_preserves_dirty():
    c = mk(16)
    c.access(0, 4, write=True)
    c.access(0, 4, write=False)     # read hits keep lines dirty
    r = c.access(100, 116, write=False)  # evict everything
    assert r.writebacks == 4


def test_invalidate_returns_counts_and_removes():
    c = mk(16)
    c.access(0, 8, write=True)
    resident, dirty = c.invalidate(2, 6)
    assert (resident, dirty) == (4, 4)
    assert c.used_lines == 4
    assert c.resident_lines(2, 6) == 0
    c._check()


def test_invalidate_miss_is_noop():
    c = mk(16)
    c.access(0, 4, write=False)
    assert c.invalidate(100, 104) == (0, 0)
    assert c.used_lines == 4


def test_downgrade_cleans_dirty_lines():
    c = mk(16)
    c.access(0, 8, write=True)
    assert c.downgrade(0, 4) == 4
    assert c.downgrade(0, 4) == 0  # already clean
    # LRU evicts the oldest lines first: 0..3, which are now clean.
    r = c.access(100, 112, write=False)
    assert r.writebacks == 0
    # A further fill evicts the still-dirty 4..8.
    r = c.access(200, 216, write=False)
    assert r.writebacks == 4
    c._check()


def test_peek_does_not_disturb_lru():
    c = mk(8)
    c.access(0, 4, write=False)   # older
    c.access(10, 14, write=False)  # newer
    assert c.peek(0, 4) == [(0, 4, False)]
    # A fill now must evict lines 0..3 (still LRU despite the peek).
    c.access(20, 24, write=False)
    assert c.resident_lines(0, 4) == 0
    assert c.resident_lines(10, 14) == 4


def test_peek_reports_dirty_flag():
    c = mk(16)
    c.access(0, 4, write=True)
    c.access(4, 8, write=False)
    segs = c.peek(0, 8)
    assert (0, 4, True) in segs and (4, 8, False) in segs


def test_flush_returns_dirty_count():
    c = mk(16)
    c.access(0, 4, write=True)
    c.access(8, 12, write=False)
    assert c.flush() == 4
    assert c.used_lines == 0


def test_zero_length_access_noop():
    c = mk(8)
    assert c.access(5, 5, write=True) == AccessResult(0, 0, 0)
    assert c.used_lines == 0


def test_interleaved_hits_move_to_top():
    c = mk(8)
    c.access(0, 4, write=False)
    c.access(4, 8, write=False)
    c.access(0, 4, write=False)   # 0..4 now most recent
    c.access(20, 24, write=False)  # evicts 4..8
    assert c.resident_lines(0, 4) == 4
    assert c.resident_lines(4, 8) == 0


def test_pingpong_steady_state_reuse():
    """Two buffers that together fit the cache stay fully hot."""
    c = mk(64)
    for _ in range(5):
        a = c.access(0, 16, write=False)
        b = c.access(100, 116, write=True)
    assert a.hits == 16 and b.hits == 16
    c._check()


def _extents(c):
    return [(x.start, x.end, x.dirty) for x in c.iter_extents()]


def test_invalidate_merges_the_extents_it_makes_adjacent():
    c = mk(64)
    c.access(0, 10, write=False)
    c.access(50, 60, write=False)
    c.access(10, 20, write=False)  # continues [0, 10) but not on top of it
    assert _extents(c) == [(10, 20, False), (50, 60, False), (0, 10, False)]
    c.invalidate(50, 60)
    assert _extents(c) == [(0, 20, False)]
    c._check()


def test_downgrade_merges_cleaned_lines_with_clean_neighbours():
    c = mk(64)
    c.access(0, 10, write=False)
    c.access(10, 20, write=True)
    c.access(20, 30, write=False)
    assert _extents(c) == [(20, 30, False), (10, 20, True), (0, 10, False)]
    assert c.downgrade(10, 20) == 10
    assert _extents(c) == [(0, 30, False)]
    c._check()
    # A partial downgrade splits at its own stack position.
    c.access(40, 50, write=True)
    assert c.downgrade(44, 46) == 2
    assert _extents(c) == [(46, 50, True), (44, 46, False), (40, 44, True), (0, 30, False)]
    c._check()


# -- pure misses: a band that overlaps no resident extent -------------------


def test_pure_miss_continuing_the_top_extent_merges_with_it():
    for dirty in (False, True):
        c = mk(64)
        c.access(0, 10, write=dirty)
        c._check()
        assert c.access(10, 16, write=dirty) == AccessResult(0, 6, 0)
        c._check()
        assert _extents(c) == [(0, 16, dirty)]
        assert c.used_lines == 16


def test_pure_miss_with_other_dirty_flag_or_gap_pushes_a_new_extent():
    c = mk(64)
    c.access(0, 10, write=False)
    c._check()
    assert c.access(10, 16, write=True) == AccessResult(0, 6, 0)  # other flag
    c._check()
    assert _extents(c) == [(10, 16, True), (0, 10, False)]
    assert c.access(20, 24, write=True) == AccessResult(0, 4, 0)  # a gap
    c._check()
    assert _extents(c) == [(20, 24, True), (10, 16, True), (0, 10, False)]
    # Lands between two resident extents in address order.
    assert c.access(16, 18, write=False) == AccessResult(0, 2, 0)
    c._check()
    assert _extents(c) == [
        (16, 18, False), (20, 24, True), (10, 16, True), (0, 10, False)
    ]
    assert c.used_lines == 22


def test_pure_miss_larger_than_capacity_trims_itself():
    c = mk(8)
    c.access(100, 104, write=True)  # 4 dirty lines, evicted by the band
    c._check()
    assert c.access(0, 20, write=False) == AccessResult(0, 20, 4)
    c._check()
    assert _extents(c) == [(12, 20, False)]
    assert c.used_lines == c.capacity
    # A dirty band writes back the lines it evicts of itself.
    assert c.access(40, 60, write=True) == AccessResult(0, 20, 12)
    c._check()
    assert _extents(c) == [(52, 60, True)]
    assert c.used_lines == c.capacity
