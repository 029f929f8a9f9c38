"""Property tests for MESI-lite coherence invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import xeon_e5345
from repro.hw.cache import AccessResult, ExtentLRUCache
from repro.hw.coherence import CoherenceDomain
from repro.hw.counters import EVENTS, Papi

from .reference_cache import ReferenceLRUCache


def _domain(capacity=32):
    topo = xeon_e5345()
    caches = [ExtentLRUCache(capacity, name=f"d{d}") for d in range(topo.ndies)]
    return CoherenceDomain(topo, caches, Papi(topo.ncores)), caches


_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "dma_read", "dma_write"]),
        st.integers(0, 7),     # core (ignored for dma)
        st.integers(0, 60),    # start line
        st.integers(1, 20),    # length
    ),
    min_size=1,
    max_size=40,
)


def _dirty_owners(caches, universe=100):
    """For each line, the set of caches holding it dirty."""
    owners = {}
    for ci, cache in enumerate(caches):
        for a, b, dirty in cache.peek(0, universe):
            if dirty:
                for line in range(a, b):
                    owners.setdefault(line, set()).add(ci)
    return owners


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_single_writer_invariant(ops):
    """A line is dirty in at most one cache, always."""
    dom, caches = _domain()
    for kind, core, start, length in ops:
        end = start + length
        if kind == "read":
            dom.read(core, start, end)
        elif kind == "write":
            dom.write(core, start, end)
        elif kind == "dma_read":
            dom.dma_read(start, end)
        else:
            dom.dma_write(start, end)
        for line, owners in _dirty_owners(caches).items():
            assert len(owners) <= 1, (kind, line, owners)


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_write_invalidates_all_other_copies(ops):
    """After a write by core c, no other cache holds any of the lines."""
    dom, caches = _domain()
    topo = dom.topo
    for kind, core, start, length in ops:
        end = start + length
        if kind == "write":
            dom.write(core, start, end)
            die = topo.die_of(core)
            for other, cache in enumerate(caches):
                if other != die:
                    assert cache.resident_lines(start, end) == 0
            # And the writer holds the whole (cache-bounded) range dirty.
            mine = caches[die].peek(start, end)
            assert all(d for _, _, d in mine)
        elif kind == "read":
            dom.read(core, start, end)
        elif kind == "dma_read":
            dom.dma_read(start, end)
        else:
            dom.dma_write(start, end)


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_dma_read_leaves_memory_consistent(ops):
    """After dma_read of a range, no cache holds dirty lines there
    (memory is up to date for the device)."""
    dom, caches = _domain()
    for kind, core, start, length in ops:
        end = start + length
        if kind == "read":
            dom.read(core, start, end)
        elif kind == "write":
            dom.write(core, start, end)
        elif kind == "dma_write":
            dom.dma_write(start, end)
        else:
            dom.dma_read(start, end)
            for cache in caches:
                assert all(not d for _, _, d in cache.peek(start, end))


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_counters_monotone_and_consistent(ops):
    """Hits + misses accounted per op; REMOTE + DRAM == MISSES."""
    dom, caches = _domain()
    papi = dom.papi
    for kind, core, start, length in ops:
        end = start + length
        if kind == "read":
            b = dom.read(core, start, end)
        elif kind == "write":
            b = dom.write(core, start, end)
        else:
            continue
        assert b.lines == length
        assert b.remote_hits + b.dram_lines == b.misses
    for c in range(8):
        assert papi.read(c, "REMOTE_HITS") + papi.read(c, "DRAM_LINES") == papi.read(
            c, "L2_MISSES"
        )


class _ReferenceCache(ReferenceLRUCache):
    """The per-line reference behind ExtentLRUCache's access signature."""

    def access(self, start, end, write):
        return AccessResult(*super().access(start, end, write))


@settings(max_examples=150, deadline=None)
@given(ops=_ops, capacity=st.integers(1, 48))
def test_extent_domain_matches_reference_domain(ops, capacity):
    """The same op sequence through extent caches and through per-line
    reference caches yields equal breakdowns, DMA returns and PAPI
    counters; every line a core streams is one L2 hit or miss."""
    topo = xeon_e5345()
    ext, _ = _domain(capacity)
    ref = CoherenceDomain(
        topo, [_ReferenceCache(capacity) for _ in range(topo.ndies)], Papi(topo.ncores)
    )
    streamed = [0] * topo.ncores
    for i, (kind, core, start, length) in enumerate(ops):
        end = start + length
        if kind in ("read", "write"):
            got = getattr(ext, kind)(core, start, end)
            want = getattr(ref, kind)(core, start, end)
            streamed[core] += length
        else:
            got = getattr(ext, kind)(start, end)
            want = getattr(ref, kind)(start, end)
        assert got == want, f"op {i}: {kind}({core}, {start}, {end}): {got} != {want}"
    for c in range(topo.ncores):
        for event in EVENTS:
            assert ext.papi.read(c, event) == ref.papi.read(c, event), (c, event)
        hits_and_misses = ext.papi.read(c, "L2_HITS") + ext.papi.read(c, "L2_MISSES")
        assert hits_and_misses == streamed[c], (
            f"core {c}: L2_HITS + L2_MISSES = {hits_and_misses} "
            f"but it streamed {streamed[c]} lines"
        )
