"""Tests for the I/OAT DMA engine model."""

import numpy as np
import pytest

from repro.errors import HardwareError
from repro.hw import Machine, xeon_e5345
from repro.hw.dma import DmaRequest
from repro.sim import Engine
from repro.units import CACHE_LINE, KiB, PAGE_SIZE


@pytest.fixture()
def machine():
    eng = Engine()
    return eng, Machine(eng, xeon_e5345())


def _request(machine, nbytes, *, status_write=False, execute=None, align=PAGE_SIZE):
    eng, m = machine
    src = m.alloc_phys(nbytes, align=align)
    dst = m.alloc_phys(nbytes, align=align)
    descs = m.dma.build_descriptors([(src, dst, nbytes, execute)])
    return DmaRequest(descs, done=eng.event("dma-done"), status_write=status_write)


def test_descriptor_splitting(machine):
    _, m = machine
    limit = m.params.dma_max_desc_bytes
    descs = m.dma.build_descriptors([(0, limit * 3, int(2.5 * limit), None)])
    assert [d.nbytes for d in descs] == [limit, limit, limit // 2]
    assert descs[1].src_phys == limit
    assert descs[2].execute is None


def test_empty_segment_rejected(machine):
    _, m = machine
    with pytest.raises(HardwareError):
        m.dma.build_descriptors([(0, 0, 0, None)])


def test_copy_time_matches_dma_rate(machine):
    eng, m = machine
    nbytes = 1024 * KiB
    req = _request(machine, nbytes)

    def proc():
        m.dma.submit(req)
        yield req.done
        return eng.now

    (t,) = eng.run_processes([proc])
    # Per descriptor the engine waits for whichever is slower: the
    # device stream rate or the copy's two bus crossings.
    per_byte = max(1.0 / m.params.dma_rate, 2.0 / m.params.dram_bus_rate)
    assert t == pytest.approx(nbytes * per_byte, rel=0.05)


def test_in_order_completion(machine):
    eng, m = machine
    req1 = _request(machine, 256 * KiB)
    req2 = _request(machine, 64 * KiB)
    times = {}

    def proc():
        m.dma.submit(req1)
        m.dma.submit(req2)
        yield req1.done
        times["first"] = eng.now
        yield req2.done
        times["second"] = eng.now

    eng.run_processes([proc])
    assert times["first"] < times["second"]


def test_execute_moves_real_bytes(machine):
    eng, m = machine
    src = np.arange(1000, dtype=np.uint8)
    dst = np.zeros(1000, dtype=np.uint8)
    moved = []

    def execute():
        dst[:] = src
        moved.append(eng.now)

    req = _request(machine, 1000, execute=execute)

    def proc():
        m.dma.submit(req)
        yield req.done

    eng.run_processes([proc])
    assert np.array_equal(dst, src)
    assert moved


def test_dma_bypasses_caches_but_flushes_dirty(machine):
    eng, m = machine
    nbytes = 64 * KiB
    src = m.alloc_phys(nbytes)
    dst = m.alloc_phys(nbytes)
    # Core 0 dirties the source region.
    s0, s1 = m.line_span(src, nbytes)
    m.coherence.write(0, s0, s1)
    m.papi.reset()

    descs = m.dma.build_descriptors([(src, dst, nbytes, None)])
    req = DmaRequest(descs, done=eng.event())

    def proc():
        m.dma.submit(req)
        yield req.done

    eng.run_processes([proc])
    # No CPU cache events during the DMA copy.
    assert m.papi.total("L2_MISSES") == 0
    # Source copy was downgraded to clean.
    assert all(not d for _, _, d in m.caches[0].peek(s0, s1))
    # Background writeback traffic was charged.
    assert m.memory.background_bytes == nbytes


def test_submission_cost_scales_with_descriptors(machine):
    _, m = machine
    small = _request(machine, 64 * KiB)
    large = _request(machine, 1024 * KiB)
    assert m.dma.submission_cost(large) > m.dma.submission_cost(small)


def test_misalignment_penalty(machine):
    _, m = machine
    aligned = _request(machine, 64 * KiB, align=PAGE_SIZE)
    misaligned = _request(machine, 64 * KiB, align=64)
    cost_a = m.dma.submission_cost(aligned)
    cost_m = m.dma.submission_cost(misaligned)
    assert cost_m >= cost_a  # equality possible if alloc lands aligned


def test_status_write_adds_trailing_descriptor_cost(machine):
    _, m = machine
    req_plain = _request(machine, 64 * KiB)
    req_status = _request(machine, 64 * KiB, status_write=True)
    assert (
        m.dma.submission_cost(req_status)
        == m.dma.submission_cost(req_plain) + m.params.dma_submit
    )


def test_empty_request_rejected(machine):
    eng, m = machine
    with pytest.raises(HardwareError):
        m.dma.submit(DmaRequest([], done=eng.event()))


def test_misaligned_descriptor_covers_every_line_it_touches(machine):
    """A 64-byte descriptor starting mid-line spans two lines on each
    side: both source lines flush, both destination lines invalidate."""
    eng, m = machine
    base = m.alloc_phys(2 * PAGE_SIZE)
    src, dst = base + 32, base + PAGE_SIZE + 32
    s0, s1 = m.line_span(src, 64)
    d0, d1 = m.line_span(dst, 64)
    assert (s1 - s0, d1 - d0) == (2, 2)
    m.coherence.write(0, s0, s1)
    m.coherence.write(0, d0, d1)
    req = DmaRequest(m.dma.build_descriptors([(src, dst, 64, None)]), done=eng.event())

    def proc():
        m.dma.submit(req)
        yield req.done

    eng.run_processes([proc])
    assert m.caches[0].peek(s0, s1) == [(s0, s1, False)]
    assert m.memory.background_bytes == 2 * CACHE_LINE
    assert m.caches[0].peek(d0, d1) == []
