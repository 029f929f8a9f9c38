"""The one-extent fast paths of ExtentLRUCache leave exactly the state
the general splice leaves.

``access``, ``invalidate`` and ``downgrade`` handle a range that lies
inside one resident extent with ``_replace``; every other range goes
through ``_splice``.  A twin cache routes every op through the general
path, and after each op both caches must agree on the result and on
every extent in stack order, and the fast-path cache must pass
``_check()`` (which rejects a stack-adjacent pair left unmerged).  The
per-line reference model cannot see an unmerged pair, so only this
comparison catches a fast path that skips a coalesce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import AccessResult, Extent, ExtentLRUCache

UNIVERSE = 48


class GenericCache(ExtentLRUCache):
    """Every op through the general k-extent path, misses included."""

    def access(self, start, end, write):
        if start >= end:
            return AccessResult(0, 0, 0)
        return self._access_extents(*self._find(start, end), start, end, write)

    def invalidate(self, start, end):
        return self._invalidate_extents(*self._find(start, end), start, end)

    def downgrade(self, start, end):
        return self._downgrade_extents(*self._find(start, end), start, end)


def _apply(fast, twin, op):
    kind, start, end, write = op
    if kind == "access":
        got, want = fast.access(start, end, write), twin.access(start, end, write)
    else:
        got = getattr(fast, kind)(start, end)
        want = getattr(twin, kind)(start, end)
    fast._check()
    assert got == want, op
    assert list(fast.iter_extents()) == list(twin.iter_extents()), op
    assert fast.used_lines == twin.used_lines, op


def _inside(data, extent):
    """A sub-range of ``extent``: whole, low end, high end or middle."""
    s, e = extent.start, extent.end
    shape = data.draw(st.sampled_from(["whole", "low", "high", "middle"]))
    if shape == "whole" or e - s == 1:
        return s, e
    if shape == "low":
        return s, data.draw(st.integers(s + 1, e - 1))
    if shape == "high":
        return data.draw(st.integers(s + 1, e - 1)), e
    a = data.draw(st.integers(s, e - 1))
    return a, data.draw(st.integers(a + 1, e))


def _draw_op(data, cache):
    extents = list(cache.iter_extents())
    kind = data.draw(
        st.sampled_from(
            ["rehit"] * 4 + ["neighbour", "access", "invalidate", "downgrade"]
        )
    )
    if kind != "access" and not extents:
        kind = "access"
    if kind == "access":
        a = data.draw(st.integers(0, UNIVERSE - 1))
        b = data.draw(st.integers(a, min(UNIVERSE, a + 12)))
        return ("access", a, b, data.draw(st.booleans()))
    # The top extent, the one below it, or any.
    depth = data.draw(st.sampled_from([0, 1, None]))
    if depth is None or depth >= len(extents):
        x = data.draw(st.sampled_from(extents))
    else:
        x = extents[depth]
    if kind == "neighbour":
        # Lines just past either end of an extent, so that the new
        # extent continues it in address: a later op on the extent
        # between them in the stack makes the pair stack-adjacent.
        n = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()) or x.start == 0:
            return ("access", x.end, x.end + n, data.draw(st.booleans()))
        return ("access", max(0, x.start - n), x.start, data.draw(st.booleans()))
    a, b = _inside(data, x)
    if kind == "rehit":
        # Half the re-hits flip the extent's dirty flag (a write to a
        # clean extent; a read keeps a dirty one dirty, so the flip
        # from dirty needs a downgrade, drawn below).
        return ("access", a, b, data.draw(st.booleans()))
    return (kind, a, b, False)


@settings(max_examples=500, deadline=None)
@given(capacity=st.integers(min_value=4, max_value=32), data=st.data())
def test_fast_paths_match_the_generic_splice(capacity, data):
    fast, twin = ExtentLRUCache(capacity), GenericCache(capacity)
    for _ in range(data.draw(st.integers(1, 40))):
        _apply(fast, twin, _draw_op(data, fast))


def _run(capacity, ops):
    fast, twin = ExtentLRUCache(capacity), GenericCache(capacity)
    for op in ops:
        _apply(fast, twin, op)
    return list(fast.iter_extents())


def test_whole_rehit_of_the_top_extent_merges_with_the_one_below():
    # The write turns the top extent dirty, so it now continues the
    # dirty extent below it and the two must merge into one.
    ops = [("access", 0, 100, True), ("access", 100, 200, False), ("access", 100, 200, True)]
    assert _run(256, ops) == [Extent(0, 200, True)]


def test_whole_rehit_of_a_deep_extent_merges_the_neighbours_it_separated():
    # [4,8) continues [0,4) in address, but [20,24) sits between them
    # in the stack until it moves to the top.
    ops = [
        ("access", 0, 4, False),
        ("access", 20, 24, False),
        ("access", 4, 8, False),
        ("access", 20, 24, True),
    ]
    assert _run(32, ops) == [Extent(20, 24, True), Extent(0, 8, False)]


def test_invalidate_inside_one_extent_merges_the_neighbours_it_separated():
    # [4,8) continues [0,4) in address, but [20,24) sits between them
    # in the stack; removing it leaves them stack-adjacent.
    ops = [
        ("access", 0, 4, False),
        ("access", 20, 24, False),
        ("access", 4, 8, False),
        ("invalidate", 20, 24, False),
    ]
    assert _run(32, ops) == [Extent(0, 8, False)]


def test_downgrade_inside_one_extent_splits_high_dirty_clean_low_dirty():
    ops = [("access", 0, 10, True), ("downgrade", 3, 6, False)]
    assert _run(32, ops) == [
        Extent(6, 10, True),
        Extent(3, 6, False),
        Extent(0, 3, True),
    ]
