"""Tests for the runtime Machine container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hw import Machine, xeon_e5345
from repro.hw.coherence import REGION_LINES
from repro.kernel.address_space import AddressSpace, alloc_shared
from repro.kernel.pipes import Pipe
from repro.sim import Engine
from repro.units import CACHE_LINE, PAGE_SIZE

REGION = REGION_LINES * CACHE_LINE


@pytest.fixture()
def machine():
    eng = Engine()
    return Machine(eng, xeon_e5345())


def test_machine_builds_all_resources(machine):
    assert len(machine.cores) == 8
    assert len(machine.caches) == 4
    assert machine.caches[0].capacity == 4 * 1024 * 1024 // CACHE_LINE


def test_alloc_phys_is_page_aligned_and_disjoint(machine):
    a = machine.alloc_phys(1000)
    b = machine.alloc_phys(1000)
    assert a % PAGE_SIZE == 0
    assert b % PAGE_SIZE == 0
    assert b >= a + 1000


def test_alloc_phys_custom_alignment(machine):
    a = machine.alloc_phys(100, align=CACHE_LINE)
    assert a % CACHE_LINE == 0


def test_alloc_phys_rejects_nonpositive(machine):
    with pytest.raises(HardwareError):
        machine.alloc_phys(0)


@pytest.mark.parametrize("align", [0, -4096, 3, 3000, 4096 + 64, 1.0])
def test_alloc_phys_rejects_alignment_not_a_power_of_two(machine, align):
    with pytest.raises(HardwareError, match=f"power of two: {align!r}$"):
        machine.alloc_phys(100, align=align)


@settings(max_examples=150, deadline=None)
@given(
    allocs=st.lists(
        st.tuples(
            st.sampled_from(["private", "shared", "pipe"]),
            st.one_of(st.integers(1, 3 * REGION), st.sampled_from([1, REGION, REGION + 1])),
            # Alignment exponent: a cache line up to four regions.
            st.integers(0, 18),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_every_allocation_owns_its_snoop_filter_regions(allocs):
    """Private, shared and pipe allocations of any size and power-of-two
    alignment get disjoint ranges, each aligned as asked and starting on
    a region boundary, so no 64 KiB region holds lines of two of them."""
    m = Machine(Engine(), xeon_e5345())
    space = AddressSpace(m, pid=0)
    ranges = []
    for kind, nbytes, exp in allocs:
        if kind == "private":
            align = 1 << exp
            buf = space.alloc(nbytes, align=align)
            assert buf.phys % align == 0
        elif kind == "shared":
            buf = alloc_shared(m, nbytes)
        else:
            buf = Pipe(m, capacity=nbytes)._kernel_ring
        assert buf.phys % PAGE_SIZE == 0
        assert buf.phys % REGION == 0
        ranges.append((buf.phys, buf.phys + buf.nbytes))
    assert min(a for a, _ in ranges) > 0
    ranges.sort()
    for (_, end), (start, _) in zip(ranges, ranges[1:]):
        assert end <= start
    owner = {}
    for i, (a, b) in enumerate(ranges):
        for region in range(a // REGION, (b - 1) // REGION + 1):
            assert owner.setdefault(region, i) == i, f"region {region}"


def test_line_span(machine):
    assert Machine.line_span(0, 64) == (0, 1)
    assert Machine.line_span(0, 65) == (0, 2)
    assert Machine.line_span(64, 64) == (1, 2)
    assert Machine.line_span(10, 1) == (0, 1)
    assert Machine.line_span(0, 0) == (0, 0)


def test_cache_of_core_follows_topology(machine):
    assert machine.cache_of_core(0) is machine.caches[0]
    assert machine.cache_of_core(1) is machine.caches[0]
    assert machine.cache_of_core(4) is machine.caches[2]


def test_memory_bus_shared_between_streams(machine):
    eng = machine.engine
    ends = []

    def xfer():
        yield machine.memory.dram_transfer(machine.params.dram_bus_rate / 4)
        ends.append(eng.now)

    eng.run_processes([xfer, xfer])
    # Two quarter-second (alone) transfers sharing the bus: 0.5s each.
    assert all(t == pytest.approx(0.5) for t in ends)
