"""Tests for the cache-bypassing copy engine, as I/OAT and as DSA.

One :class:`~repro.hw.dma.DmaEngine` class serves both devices, so each
behaviour they share is checked once, by a ``_check_*`` function that
takes the device kind.  The tests here run them on I/OAT (plus the
I/OAT-only behaviour: status write, misalignment penalty, per-descriptor
doorbells, in-order completion); ``tests/offload/test_dsa_engine.py``
runs the same checks on DSA (plus the DSA-only behaviour).  Requests go
through :func:`repro.kernel.copy.dma_copy`, the one submit path.
"""

import pytest

from repro.errors import HardwareError
from repro.hw import Machine, modern_server, xeon_e5345
from repro.hw.dma import DmaRequest
from repro.kernel.address_space import AddressSpace
from repro.kernel.copy import dma_copy
from repro.sim import Engine
from repro.units import CACHE_LINE, KiB, PAGE_SIZE

PRESETS = {"ioat": xeon_e5345, "dsa": modern_server}


def make(kind):
    """(engine, machine, device) for ``kind`` in :data:`PRESETS`."""
    eng = Engine()
    m = Machine(eng, PRESETS[kind]())
    return eng, m, (m.dma if kind == "ioat" else m.dsa)


def views(m, nbytes, offset=0):
    """A (source, destination) pair of ``nbytes`` views, each ``offset``
    bytes into a page."""
    space = AddressSpace(m, 0)
    return tuple(
        space.alloc(nbytes + offset).view(offset, nbytes) for _ in range(2)
    )


def copy(eng, dev, src, dst, core=0, **kw):
    """Run one :func:`dma_copy` from ``core``; returns the request and
    the times it was submitted and completed."""
    out = {}

    def proc():
        req = yield from dma_copy(dev, core, [dst], [src], **kw)
        out["submitted"] = eng.now
        yield req.done
        out["done"] = eng.now
        return req

    (req,) = eng.run_processes([proc])
    return req, out["submitted"], out["done"]


# ------------------------------------------------------- shared checks
def _check_descriptor_splitting(kind):
    eng, m, dev = make(kind)
    limit = dev.max_desc_bytes
    src, dst = views(m, int(2.5 * limit))
    req, _, _ = copy(eng, dev, src, dst)
    descs = req.descriptors
    assert [d.nbytes for d in descs] == [limit, limit, limit // 2]
    assert descs[1].src_phys == src.phys + limit
    assert descs[1].dst_phys == dst.phys + limit
    # Every piece moves its own payload when it completes.
    assert all(d.execute is not None for d in descs)


def _check_empty_copy_rejected(kind):
    eng, m, dev = make(kind)
    src, dst = views(m, PAGE_SIZE)
    with pytest.raises(HardwareError, match=f"empty {dev.name} request"):
        copy(eng, dev, src.sub(0, 0), dst.sub(0, 0))


def _check_empty_request_rejected(kind):
    eng, _, dev = make(kind)
    with pytest.raises(HardwareError):
        dev.submit(DmaRequest([], done=eng.event()))


def _check_copy_time_matches_rate(kind, nbytes):
    eng, m, dev = make(kind)
    src, dst = views(m, nbytes)
    _, submitted, done = copy(eng, dev, src, dst)
    # Per descriptor the engine waits for whichever is slower: the
    # device stream rate or the copy's two bus crossings.
    per_byte = max(1.0 / dev.rate, 2.0 / m.params.dram_bus_rate)
    assert done - submitted == pytest.approx(nbytes * per_byte, rel=0.05)


def _check_execute_moves_real_bytes(kind, batches):
    import numpy as np

    eng, m, dev = make(kind)
    nbytes = 256 * KiB
    src, dst = views(m, nbytes)
    payload = np.random.default_rng(7).integers(0, 255, nbytes, dtype=np.uint8)
    src.array[:] = payload
    req, _, _ = copy(eng, dev, src, dst)
    assert (dst.array == payload).all()
    assert dev.bytes_copied == nbytes
    assert dev.descriptors_processed == len(req.descriptors)
    assert dev.batches_submitted == batches
    # Submission charged the request's bytes to the submitter's PAPI.
    assert m.papi.total("DMA_BYTES") == nbytes


def _check_bypasses_caches_but_flushes_dirty(kind):
    eng, m, dev = make(kind)
    nbytes = 64 * KiB
    src, dst = views(m, nbytes)
    s0, s1 = m.line_span(src.phys, nbytes)
    d0, d1 = m.line_span(dst.phys, nbytes)
    # Core 0 dirties both ranges.
    m.coherence.write(0, s0, s1)
    m.coherence.write(0, d0, d1)
    m.papi.reset()
    copy(eng, dev, src, dst)
    cache = m.cache_of_core(0)
    # No CPU cache events during the copy.
    assert m.papi.total("L2_MISSES") == 0
    # The source copy was downgraded to clean, its writeback charged.
    assert all(not d for _, _, d in cache.peek(s0, s1))
    assert m.memory.background_bytes == nbytes
    # The destination copy was invalidated.
    assert cache.resident_lines(d0, d1) == 0


def _check_misaligned_descriptor_covers_every_line(kind):
    """A 64-byte descriptor starting mid-line spans two lines on each
    side: both source lines flush, both destination lines invalidate."""
    eng, m, dev = make(kind)
    src, dst = views(m, 64, offset=32)
    s0, s1 = m.line_span(src.phys, 64)
    d0, d1 = m.line_span(dst.phys, 64)
    assert (s1 - s0, d1 - d0) == (2, 2)
    m.coherence.write(0, s0, s1)
    m.coherence.write(0, d0, d1)
    copy(eng, dev, src, dst)
    cache = m.cache_of_core(0)
    assert cache.peek(s0, s1) == [(s0, s1, False)]
    assert m.memory.background_bytes == 2 * CACHE_LINE
    assert cache.peek(d0, d1) == []


# ------------------------------------------------------------- I/OAT
def test_descriptor_splitting():
    _check_descriptor_splitting("ioat")


def test_empty_segment_rejected():
    _check_empty_copy_rejected("ioat")


def test_empty_request_rejected():
    _check_empty_request_rejected("ioat")


def test_copy_time_matches_dma_rate():
    _check_copy_time_matches_rate("ioat", 1024 * KiB)


def test_execute_moves_real_bytes():
    _check_execute_moves_real_bytes("ioat", batches=4)


def test_dma_bypasses_caches_but_flushes_dirty():
    _check_bypasses_caches_but_flushes_dirty("ioat")


def test_misaligned_descriptor_covers_every_line_it_touches():
    _check_misaligned_descriptor_covers_every_line("ioat")


def test_in_order_completion():
    eng, m, dev = make("ioat")
    first, second = views(m, 256 * KiB), views(m, 64 * KiB)
    times = {}

    def proc():
        req1 = yield from dma_copy(dev, 0, [first[1]], [first[0]])
        req2 = yield from dma_copy(dev, 0, [second[1]], [second[0]])
        yield req1.done
        times["first"] = eng.now
        yield req2.done
        times["second"] = eng.now

    eng.run_processes([proc])
    assert times["first"] < times["second"]


def test_submission_cost_scales_with_descriptors():
    eng, m, dev = make("ioat")
    small, _, _ = copy(eng, dev, *views(m, 64 * KiB))
    large, _, _ = copy(eng, dev, *views(m, 1024 * KiB))
    assert dev.submission_cost(small) == m.params.dma_submit
    assert dev.submission_cost(large) == 16 * m.params.dma_submit


def test_misalignment_penalty():
    eng, m, dev = make("ioat")
    aligned, _, _ = copy(eng, dev, *views(m, 256 * KiB))
    # 64 bytes into a page: every descriptor of the split starts
    # misaligned on both sides.
    misaligned, _, _ = copy(eng, dev, *views(m, 256 * KiB, offset=64))
    assert len(misaligned.descriptors) == len(aligned.descriptors) == 4
    assert all(d.src_phys % PAGE_SIZE == 64 for d in misaligned.descriptors)
    cost_a = dev.submission_cost(aligned)
    cost_m = dev.submission_cost(misaligned)
    assert cost_m - cost_a == pytest.approx(4 * m.params.dma_misalign_penalty)


def test_status_write_adds_trailing_descriptor_cost():
    eng, m, dev = make("ioat")
    plain, plain_at, plain_done = copy(eng, dev, *views(m, 64 * KiB))
    eng2, m2, dev2 = make("ioat")
    status, status_at, status_done = copy(
        eng2, dev2, *views(m2, 64 * KiB), status_write=True
    )
    assert (
        dev.submission_cost(status)
        == dev.submission_cost(plain) + m.params.dma_submit
    )
    # The trailing one-line status copy runs after the payload.
    assert (status_done - status_at) - (plain_done - plain_at) == pytest.approx(
        CACHE_LINE / dev.rate
    )
