"""Tests for the MESI-lite coherence domain."""

import pytest

from repro.errors import HardwareError
from repro.hw import xeon_e5345
from repro.hw.cache import AccessResult, ExtentLRUCache
from repro.hw.coherence import CoherenceDomain, StreamBreakdown
from repro.hw.counters import Papi


@pytest.fixture()
def domain():
    topo = xeon_e5345()
    caches = [ExtentLRUCache(64, name=f"L2.die{d}") for d in range(topo.ndies)]
    papi = Papi(topo.ncores)
    return CoherenceDomain(topo, caches, papi), caches, papi


def test_cold_read_comes_from_dram(domain):
    dom, caches, papi = domain
    b = dom.read(core=0, start=0, end=16)
    assert b.local_hits == 0
    assert b.remote_hits == 0
    assert b.dram_lines == 16
    assert papi.read(0, "L2_MISSES") == 16
    assert papi.read(0, "DRAM_LINES") == 16


def test_warm_read_hits_locally(domain):
    dom, _, papi = domain
    dom.read(core=0, start=0, end=16)
    b = dom.read(core=0, start=0, end=16)
    assert b.local_hits == 16 and b.misses == 0
    assert papi.read(0, "L2_HITS") == 16


def test_shared_cache_core_pair_hit(domain):
    """Cores 0 and 1 share die 0's cache: one warms it for the other."""
    dom, _, _ = domain
    dom.read(core=0, start=0, end=16)
    b = dom.read(core=1, start=0, end=16)
    assert b.local_hits == 16


def test_remote_cache_read_is_snoop_hit(domain):
    """Core 4 (other socket) reads what core 0 cached: FSB transfer."""
    dom, _, papi = domain
    dom.read(core=0, start=0, end=16)
    b = dom.read(core=4, start=0, end=16)
    assert b.remote_hits == 16
    assert b.dram_lines == 0
    assert papi.read(4, "REMOTE_HITS") == 16
    # Both caches now hold shared copies.
    assert dom.caches[0].resident_lines(0, 16) == 16
    assert dom.caches[2].resident_lines(0, 16) == 16


def test_remote_dirty_read_forces_writeback(domain):
    dom, _, _ = domain
    dom.write(core=0, start=0, end=16)  # die0 lines dirty
    b = dom.read(core=4, start=0, end=16)
    assert b.remote_hits == 16
    assert b.writeback_lines == 16  # M -> S downgrade
    # Owner keeps a clean copy.
    assert dom.caches[0].peek(0, 16) == [(0, 16, False)]


def test_write_invalidates_remote_copies(domain):
    dom, _, _ = domain
    dom.read(core=0, start=0, end=16)
    dom.write(core=4, start=0, end=16)
    assert dom.caches[0].resident_lines(0, 16) == 0
    assert dom.caches[2].peek(0, 16) == [(0, 16, True)]


def test_write_rfo_fetches_remote_dirty(domain):
    dom, _, _ = domain
    dom.write(core=0, start=0, end=8)
    b = dom.write(core=4, start=0, end=8)
    assert b.remote_hits == 8  # fetched cache-to-cache
    assert dom.caches[0].resident_lines(0, 8) == 0


def test_dma_read_flushes_dirty(domain):
    dom, _, _ = domain
    dom.write(core=0, start=0, end=16)
    flushed = dom.dma_read(0, 16)
    assert flushed == 16
    # Copy stays resident but clean.
    assert dom.caches[0].peek(0, 16) == [(0, 16, False)]
    assert dom.dma_read(0, 16) == 0


def test_dma_write_invalidates_everywhere(domain):
    dom, _, _ = domain
    dom.read(core=0, start=0, end=16)
    dom.read(core=4, start=0, end=16)
    dropped = dom.dma_write(0, 16)
    assert dropped == 32  # both caches held copies
    assert dom.caches[0].resident_lines(0, 16) == 0
    assert dom.caches[2].resident_lines(0, 16) == 0


def test_dma_traffic_does_not_touch_papi_misses(domain):
    dom, _, papi = domain
    dom.write(core=0, start=0, end=16)
    dom.dma_read(0, 16)
    dom.dma_write(100, 116)
    assert papi.read(0, "L2_MISSES") == 16  # only the CPU write


def test_empty_stream_is_noop(domain):
    dom, _, _ = domain
    b = dom.read(core=0, start=5, end=5)
    assert b.lines == 0


def test_mismatched_cache_count_rejected():
    topo = xeon_e5345()
    with pytest.raises(ValueError):
        CoherenceDomain(topo, [ExtentLRUCache(8)], Papi(topo.ncores))


def test_stream_breakdown_addition_is_field_wise():
    a = StreamBreakdown(1, 2, 3, 4, 5)
    b = StreamBreakdown(10, 20, 30, 40)
    total = a + b
    assert type(total) is StreamBreakdown
    assert total == StreamBreakdown(11, 22, 33, 44, 5)
    assert (total.lines, total.misses) == (66, 55)


def test_access_result_keywords_equal_positional():
    r = AccessResult(hits=3, misses=5, writebacks=2)
    assert r == AccessResult(3, 5, 2)
    assert (r.hits, r.misses, r.writebacks, r.lines) == (3, 5, 2, 8)


@pytest.mark.parametrize("core", [-1, 8])
def test_out_of_range_core_rejected(domain, core):
    dom, caches, _ = domain
    with pytest.raises(HardwareError):
        dom.read(core=core, start=0, end=16)
    with pytest.raises(HardwareError):
        dom.write(core=core, start=0, end=16)
    assert all(c.peek(0, 16) == [] for c in caches)
