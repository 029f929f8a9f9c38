"""Exact fully-associative LRU cache, simulated at extent granularity.

The workloads in this reproduction touch memory in *bulk sequential
sweeps* (message copies, working-set scans).  Simulating every line of a
4 MiB copy individually would dominate runtime, so this cache stores its
contents as an LRU-ordered sequence of **extents** — contiguous runs of
cache lines — and processes a whole sweep with interval arithmetic.

The semantics are exactly those of a per-line fully-associative LRU
cache where each bulk access touches its lines in ascending address
order (a property test in ``tests/hw/test_cache_reference.py`` checks
bit-for-bit equality against a naive per-line model, including the
subtle case of sweeps that evict their own earlier lines).

Within one extent, recency ascends with address (the convention induced
by ascending-order sweeps): the highest-addressed line is the most
recently used of the extent.  Stack-adjacent extents that continue each
other in address are merged — the merged extent has identical per-line
depths, so coalescing is exactness-preserving and keeps the extent
count near the number of *distinct live regions*, not chunks.

Storage is two views of the same extents, in plain Python lists and a
dict (no NumPy):

- the **stack**: extent starts and sizes in MRU-to-LRU order
  (``_stk``, ``_sz``);
- the **address index**: the starts in ascending order (``_keys``, kept
  with :mod:`bisect`) plus a ``start -> (end, dirty)`` map (``_ext``).

An op finds the ``k`` extents overlapping its range by bisecting the
index, in O(log n + k), and splices each one's remainder pieces in at
its own stack position.  An access also pushes its band at the top and
trims from the bottom; the depth of an overlapped extent is a prefix sum
over a slice of ``_sz``.  Coalescing happens only at the seams a splice
creates, which keeps the stack fully merged.  A snoop that overlaps
nothing costs two bisects, and so does finding that an access is a
pure miss: such a band skips the splice and either extends the top
extent in place (the one merge its seam allows) or is pushed as a new
extent.  An op whose range lies inside one resident extent (most hits,
invalidations and downgrades in the paper's workloads) skips it too:
``_replace`` swaps that one extent for its pieces at its stack position
and checks only the seams ``_splice`` would.  Such an access needs no
depth either, since every line of it hits and nothing is evicted.

Addresses here are **line numbers**, not bytes; callers divide by the
line size.  ``dirty`` tracking enables write-back accounting (evicted
dirty lines become bus traffic in :mod:`repro.hw.coherence`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from repro.errors import HardwareError

__all__ = ["AccessResult", "ExtentLRUCache", "Extent"]

#: One extent or piece of one: (start, end, dirty).
_Piece = tuple[int, int, bool]

#: ``_new(AccessResult, fields)`` builds a result in one C call,
#: skipping the Python-level ``__new__`` NamedTuple generates.
_new = tuple.__new__


class AccessResult(NamedTuple):
    """Outcome of one bulk access."""

    hits: int
    misses: int
    writebacks: int  # dirty lines evicted (to be charged as bus traffic)

    @property
    def lines(self) -> int:
        return self.hits + self.misses


@dataclass(frozen=True)
class Extent:
    """A contiguous run of resident lines (read-only view for tests)."""

    start: int
    end: int
    dirty: bool

    def __len__(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        flag = "D" if self.dirty else "C"
        return f"Extent[{self.start},{self.end}){flag}"


class ExtentLRUCache:
    """Fully-associative LRU cache over line extents.

    Parameters
    ----------
    capacity_lines:
        Cache size in lines (e.g. 4 MiB / 64 B = 65536).
    name:
        For diagnostics (e.g. ``"L2.die0"``).
    """

    def __init__(self, capacity_lines: int, name: str = "") -> None:
        if capacity_lines <= 0:
            raise HardwareError(f"cache capacity must be positive: {capacity_lines}")
        self.capacity = capacity_lines
        self.name = name
        self._stk: list[int] = []  # extent starts, MRU first
        self._sz: list[int] = []  # their sizes, same order
        self._keys: list[int] = []  # extent starts, ascending
        self._ext: dict[int, tuple[int, bool]] = {}  # start -> (end, dirty)
        self._lines = 0

    # ------------------------------------------------------------- util
    @property
    def used_lines(self) -> int:
        return self._lines

    def __contains__(self, line: int) -> bool:
        i, j = self._find(line, line + 1)
        return i < j

    def iter_extents(self) -> Iterator[Extent]:
        """MRU-to-LRU iteration (for tests and debugging)."""
        ext = self._ext
        for s in self._stk:
            e, d = ext[s]
            yield Extent(s, e, d)

    def resident_lines(self, start: int, end: int) -> int:
        """How many lines of [start, end) are currently resident."""
        i, j = self._find(start, end)
        ext = self._ext
        return sum(min(ext[s][0], end) - max(s, start) for s in self._keys[i:j])

    def flush(self) -> int:
        """Drop everything; returns the number of dirty lines flushed."""
        dirty = sum(e - s for s, (e, d) in self._ext.items() if d)
        self._stk, self._sz, self._keys, self._ext = [], [], [], {}
        self._lines = 0
        return dirty

    def _check(self) -> None:
        """Invariant check used by tests: the index and the stack agree,
        extents are non-empty and disjoint, the line count and capacity
        hold, and no stack-adjacent pair is left unmerged."""
        keys, ext, stk, sz = self._keys, self._ext, self._stk, self._sz
        if keys != sorted(stk) or len(ext) != len(stk) or set(ext) != set(stk):
            raise HardwareError(f"{self.name}: address index and stack disagree")
        if sz != [ext[s][0] - s for s in stk]:
            raise HardwareError(f"{self.name}: stack sizes disagree with the index")
        prev_end = None
        for s in keys:
            e = ext[s][0]
            if s >= e:
                raise HardwareError(f"{self.name}: empty extent present")
            if prev_end is not None and s < prev_end:
                raise HardwareError(f"{self.name}: overlapping extents")
            prev_end = e
        total = sum(sz)
        if total != self._lines:
            raise HardwareError(f"{self.name}: line count drift {total} != {self._lines}")
        if total > self.capacity:
            raise HardwareError(f"{self.name}: over capacity {total} > {self.capacity}")
        for above, below in zip(stk, stk[1:]):
            if ext[below] == (above, ext[above][1]):
                raise HardwareError(
                    f"{self.name}: unmerged stack-adjacent extents at {below}, {above}"
                )

    # ------------------------------------------------------------ index
    def _find(self, start: int, end: int) -> tuple[int, int]:
        """``_keys[i:j]`` are the extents overlapping [start, end)."""
        if start >= end:
            return 0, 0
        keys = self._keys
        i = bisect_right(keys, start)
        if i and self._ext[keys[i - 1]][0] > start:
            i -= 1
        return i, bisect_left(keys, end, i)

    # ------------------------------------------------------------ peek
    def peek(self, start: int, end: int) -> list[_Piece]:
        """Resident overlaps of [start, end) as (start, end, dirty),
        in address order, without touching LRU state (a snoop probe).
        Address-adjacent same-dirty segments are merged."""
        i, j = self._find(start, end)
        if i == j:
            return []
        ext = self._ext
        out: list[_Piece] = []
        for s in self._keys[i:j]:
            e, dirty = ext[s]
            a, b = max(s, start), min(e, end)
            if out and out[-1][1] == a and out[-1][2] == dirty:
                out[-1] = (out[-1][0], b, dirty)
            else:
                out.append((a, b, dirty))
        return out

    # ---------------------------------------------------------- access
    def access(self, start: int, end: int, write: bool) -> AccessResult:
        """Bulk access of lines [start, end) in ascending order.

        Returns exact hit/miss counts and the number of dirty lines
        evicted (both mid-sweep self-evictions and capacity evictions).
        """
        if start >= end:
            return _new(AccessResult, (0, 0, 0))
        i, j = self._find(start, end)
        if i == j:
            return _new(AccessResult, (0, end - start, self._push_miss(i, start, end, write)))
        if j - i == 1:
            s = self._keys[i]
            e, dirty = self._ext[s]
            if s <= start and end <= e:
                # Inside one resident extent: every line is shallower
                # than the capacity, so all hit and nothing is evicted.
                band = (start, end, write or dirty)
                self._replace(i, s, _outside(s, e, dirty, start, end), band)
                return _new(AccessResult, (end - start, 0, 0))
        return self._access_extents(i, j, start, end, write)

    def _access_extents(self, i: int, j: int, start: int, end: int, write: bool) -> AccessResult:
        """:meth:`access` of a range overlapping the extents
        ``_keys[i:j]``, in general: they may be several, overlap the
        range in part, or be none at all."""
        cap = self.capacity
        ext, sz = self._ext, self._sz
        olds = self._keys[i:j]
        pos = [self._stk.index(s) for s in olds]
        # -- 1. lines above each overlapped extent: prefix sums of _sz
        above = [0] * len(olds)
        acc = prev = 0
        for x in sorted(range(len(olds)), key=pos.__getitem__):
            acc += sum(sz[prev : pos[x]])
            prev = pos[x]
            above[x] = acc
        # -- 2. sweep the resident runs in address order, deciding
        # survival per run.  Line x in [a, b) has pre-sweep depth
        # d(x) = depth_a-(x-a) and survives iff s(d(x)) > T, where s(d)
        # counts already-hit lines with pre-sweep depth < d; survivors
        # form an address prefix of each run.
        hits = misses = wb_self = 0
        survivors: list[_Piece] = []
        edits: list[list[_Piece]] = []
        hit_depths: list[tuple[int, int]] = []
        cursor = start
        for s, top in zip(olds, above):
            e, run_dirty = ext[s]
            a, b = max(s, start), min(e, end)
            depth_a = top + e - 1 - a
            misses += a - cursor
            cursor = b
            run_len = b - a
            T = hits + misses + depth_a - cap
            if T < 0:
                survive = run_len
            else:
                survive = _count_surviving(hit_depths, depth_a - (run_len - 1), depth_a, T)
            if survive > 0:
                hits += survive
                hit_depths.append((depth_a - survive + 1, depth_a + 1))
                survivors.append((a, a + survive, run_dirty))
            failed = run_len - survive
            if failed > 0:
                misses += failed
                if run_dirty:
                    wb_self += failed
            edits.append(_outside(s, e, run_dirty, start, end))
        misses += end - cursor

        # -- 3. remainders stay in place, the band covering [start, end)
        # goes on top; trim to capacity from the bottom.
        self._splice(i, j, edits, pos, _build_band(start, end, write, survivors))
        return _new(AccessResult, (hits, misses, wb_self + self._trim()))

    def _push_miss(self, i: int, start: int, end: int, write: bool) -> int:
        """Push a band that overlaps nothing (``_keys[i]`` is its index
        slot) and trim; returns the dirty lines written back.

        This is ``_splice`` plus ``_coalesce`` specialised to one new
        extent: its only seam is with the old top, which merges exactly
        when the top ends at ``start`` with the same dirty flag.
        """
        n = end - start
        ext, stk = self._ext, self._stk
        if stk and ext[stk[0]] == (start, write):
            ext[stk[0]] = (end, write)
            self._sz[0] += n
        else:
            self._keys.insert(i, start)
            ext[start] = (end, write)
            stk.insert(0, start)
            self._sz.insert(0, n)
        self._lines += n
        return self._trim()

    # ------------------------------------------------------ coherence
    def invalidate(self, start: int, end: int) -> tuple[int, int]:
        """Remove [start, end); returns (resident_lines, dirty_lines)."""
        i, j = self._find(start, end)
        if i == j:
            return (0, 0)
        if j - i == 1:
            s = self._keys[i]
            e, dirty = self._ext[s]
            if s <= start and end <= e:
                self._replace(i, s, _outside(s, e, dirty, start, end))
                n = end - start
                return (n, n if dirty else 0)
        return self._invalidate_extents(i, j, start, end)

    def _invalidate_extents(self, i: int, j: int, start: int, end: int) -> tuple[int, int]:
        """:meth:`invalidate` of [start, end) from the extents
        ``_keys[i:j]`` it overlaps, in general."""
        ext = self._ext
        resident = dirty_lines = 0
        edits = []
        for s in self._keys[i:j]:
            e, dirty = ext[s]
            n = min(e, end) - max(s, start)
            resident += n
            if dirty:
                dirty_lines += n
            edits.append(_outside(s, e, dirty, start, end))
        self._splice(i, j, edits)
        return resident, dirty_lines

    def downgrade(self, start: int, end: int) -> int:
        """Mark [start, end) clean (after a snoop read forces a
        writeback); returns the number of lines that were dirty."""
        i, j = self._find(start, end)
        if j - i == 1:
            s = self._keys[i]
            e, dirty = self._ext[s]
            if s <= start and end <= e:
                if dirty:
                    self._replace(i, s, _downgraded(s, e, start, end))
                    return end - start
                return 0
        return self._downgrade_extents(i, j, start, end)

    def _downgrade_extents(self, i: int, j: int, start: int, end: int) -> int:
        """:meth:`downgrade` of [start, end) in the extents ``_keys[i:j]``
        it overlaps, in general."""
        ext = self._ext
        olds = self._keys[i:j]
        if not any(ext[s][1] for s in olds):
            return 0
        dirtied = 0
        edits = []
        for s in olds:
            e, dirty = ext[s]
            if not dirty:
                edits.append([(s, e, False)])
                continue
            dirtied += min(e, end) - max(s, start)
            edits.append(_downgraded(s, e, start, end))
        self._splice(i, j, edits)
        return dirtied

    # ------------------------------------------------------- mutation
    def _replace(
        self, i: int, s: int, pieces: list[_Piece], band: _Piece | None = None
    ) -> None:
        """``_splice`` specialised to one extent: replace ``_keys[i]``,
        which is ``s``, by ``pieces`` (what is left of it, in stack
        order) at its stack position, push ``band`` (lines of it, or
        nothing) on top, and coalesce the seams ``_splice`` would.

        ``pieces`` and ``band`` lie inside the old extent, so they take
        its slot in the address index.
        """
        keys, ext, stk, sz = self._keys, self._ext, self._stk, self._sz
        p = stk.index(s)
        delta = s - ext.pop(s)[0]
        k = len(pieces)
        if k:
            starts, sizes = [], []
            for a, b, dirty in pieces:
                ext[a] = (b, dirty)
                starts.append(a)
                sizes.append(b - a)
                delta += b - a
            stk[p : p + 1] = starts
            sz[p : p + 1] = sizes
        else:
            starts = []
            del stk[p], sz[p]
        if band is None:
            keys[i : i + 1] = starts[::-1]  # pieces descend in address
            seams = (p + k, p)
        else:
            a, b, dirty = band
            ext[a] = (b, dirty)
            if k:  # else the band is the whole extent and keeps its key
                keys[i : i + 1] = sorted([*starts, a])
            stk.insert(0, a)
            sz.insert(0, b - a)
            delta += b - a
            seams = (p + 1 + k, p + 1, 1)
        self._lines += delta
        self._coalesce(seams)

    def _splice(
        self,
        i: int,
        j: int,
        edits: list[list[_Piece]],
        pos: list[int] | None = None,
        top: Sequence[_Piece] = (),
    ) -> None:
        """Replace the extents ``_keys[i:j]`` by ``edits`` (one list of
        pieces per extent, in stack order) at their stack positions
        ``pos``, push ``top`` (in stack order) onto the stack, and
        coalesce at every seam this creates."""
        keys, ext, stk, sz = self._keys, self._ext, self._stk, self._sz
        olds = keys[i:j]
        if pos is None:
            pos = [stk.index(s) for s in olds]
        delta = 0
        for s in olds:
            delta -= ext.pop(s)[0] - s
        new_keys = []
        for pieces in (*edits, top):
            for a, b, dirty in pieces:
                ext[a] = (b, dirty)
                new_keys.append(a)
                delta += b - a
        new_keys.sort()
        keys[i:j] = new_keys
        self._lines += delta

        placed = sorted(zip(pos, edits))
        for p, pieces in reversed(placed):
            stk[p : p + 1] = [a for a, _, _ in pieces]
            sz[p : p + 1] = [b - a for a, b, _ in pieces]
        # A seam at q is the stack-adjacent pair (q-1, q).
        seams = []
        shift = len(top)
        for p, pieces in placed:
            seams.append(p + shift)
            seams.append(p + shift + len(pieces))
            shift += len(pieces) - 1
        if top:
            stk[0:0] = [a for a, _, _ in top]
            sz[0:0] = [b - a for a, b, _ in top]
            seams.append(len(top))
        self._coalesce(sorted(seams, reverse=True))

    def _coalesce(self, seams: Sequence[int]) -> None:
        """Merge the stack-adjacent pairs at ``seams`` (in descending
        order, repeats allowed) that continue each other.

        If extent ``A`` sits directly above ``B`` in the stack and
        ``A.start == B.end`` with equal dirty flags, the merged extent
        has *identical* per-line depths under the ascending-recency
        convention, so merging is exactness-preserving.  A merge keeps
        the outer edges of the pair, so walking the seams from the
        bottom up sees every pair a merge creates.
        """
        keys, ext, stk, sz = self._keys, self._ext, self._stk, self._sz
        n = len(stk)
        last = 0
        for q in seams:
            if q == last or not 0 < q < n:
                continue
            last = q
            a, b = stk[q - 1], stk[q]
            a_end, a_dirty = ext[a]
            if ext[b] != (a, a_dirty):
                continue
            ext[b] = (a_end, a_dirty)
            del ext[a]
            del keys[bisect_left(keys, a)]
            stk[q - 1] = b
            sz[q - 1] += sz[q]
            del stk[q], sz[q]
            n -= 1

    def _trim(self) -> int:
        """Evict from the stack bottom until within capacity; returns
        the number of dirty lines written back.  The deepest lines of
        an extent are its lowest addresses."""
        excess = self._lines - self.capacity
        if excess <= 0:
            return 0
        keys, ext, stk, sz = self._keys, self._ext, self._stk, self._sz
        wb = 0
        while excess:
            s, n = stk[-1], sz[-1]
            e, dirty = ext.pop(s)
            k = bisect_left(keys, s)
            cut = min(n, excess)
            if cut == n:
                stk.pop()
                sz.pop()
                del keys[k]
            else:
                stk[-1] = keys[k] = s + cut
                sz[-1] = n - cut
                ext[s + cut] = (e, dirty)
            if dirty:
                wb += cut
            excess -= cut
        self._lines = self.capacity
        return wb


# ---------------------------------------------------------------- helpers
def _outside(s: int, e: int, dirty: bool, start: int, end: int) -> list[_Piece]:
    """What is left of extent [s, e) after removing [start, end), in
    stack order: the higher-address remainder first (more recent)."""
    pieces = []
    if e > end:
        pieces.append((end, e, dirty))
    if s < start:
        pieces.append((s, start, dirty))
    return pieces


def _downgraded(s: int, e: int, start: int, end: int) -> list[_Piece]:
    """Dirty extent [s, e) with its overlap of [start, end) cleaned, in
    stack order: up to three pieces (high dirty / clean middle / low
    dirty), preserving the depth convention."""
    pieces = _outside(s, e, True, start, end)
    pieces.insert(1 if e > end else 0, (max(s, start), min(e, end), False))
    return pieces


def _build_band(start: int, end: int, write: bool, survivors) -> list[_Piece]:
    """Pieces covering [start, end) in DESCENDING address order
    (most recent = highest address first).

    After a write the whole band is dirty.  After a read, only the
    surviving parts of previously-dirty runs stay dirty (failed dirty
    lines were written back and refetched clean).
    """
    if write:
        return [(start, end, True)]
    pieces: list[_Piece] = []
    cursor = start

    def emit(a: int, b: int, dirty: bool) -> None:
        if a >= b:
            return
        if pieces and pieces[-1][1] == a and pieces[-1][2] == dirty:
            pieces[-1] = (pieces[-1][0], b, dirty)
        else:
            pieces.append((a, b, dirty))

    for a, b, dirty in survivors:
        if not dirty:
            continue
        emit(cursor, a, False)
        emit(a, b, True)
        cursor = b
    emit(cursor, end, False)
    pieces.reverse()
    return pieces


def _count_surviving(
    hit_depths: list[tuple[int, int]], d_lo: int, d_hi: int, T: int
) -> int:
    """Count depths d in [d_lo, d_hi] (inclusive) with s(d) > T, where
    s(d) = number of already-hit lines with pre-sweep depth < d.

    s is nondecreasing in d, so qualifying depths are a suffix; binary
    search for its start.
    """

    def s(d: int) -> int:
        return sum(max(0, min(hi, d) - lo) for lo, hi in hit_depths)

    if s(d_hi) <= T:
        return 0
    if s(d_lo) > T:
        return d_hi - d_lo + 1
    lo, hi = d_lo, d_hi
    while lo < hi:
        mid = (lo + hi) // 2
        if s(mid) > T:
            hi = mid
        else:
            lo = mid + 1
    return d_hi - lo + 1
