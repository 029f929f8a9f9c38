"""Tests for the DSA-style memory-operation engine model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hw import DsaRequest, Machine, modern_server, xeon_e5345
from repro.sim import Engine
from repro.units import KiB, MiB, PAGE_SIZE


@pytest.fixture()
def machine():
    eng = Engine()
    return eng, Machine(eng, modern_server())


def _request(machine, nbytes, *, execute=None, core=0):
    eng, m = machine
    src = m.alloc_phys(nbytes, align=PAGE_SIZE)
    dst = m.alloc_phys(nbytes, align=PAGE_SIZE)
    descs = m.dsa.build_descriptors([(src, dst, nbytes, execute)])
    return DsaRequest(descs, done=eng.event("dsa-done"), submitter_core=core)


# ------------------------------------------------------------ wiring
def test_legacy_presets_have_no_dsa_engine():
    eng = Engine()
    assert Machine(eng, xeon_e5345()).dsa is None


def test_modern_server_has_dsa_engine(machine):
    _, m = machine
    assert m.dsa is not None
    assert m.dsa.engines == m.topo.sockets * m.params.dsa_engines


def test_bad_completion_mode_rejected():
    eng = Engine()
    topo = modern_server()
    topo = type(topo)(
        name=topo.name, sockets=topo.sockets,
        dies_per_socket=topo.dies_per_socket,
        cores_per_die=topo.cores_per_die,
        params=topo.params.scaled(dsa_completion="carrier-pigeon"),
    )
    with pytest.raises(HardwareError):
        Machine(eng, topo)


# ------------------------------------------------------- descriptors
def test_descriptor_splitting(machine):
    _, m = machine
    limit = m.params.dsa_max_desc_bytes
    ran = []
    descs = m.dsa.build_descriptors(
        [(0, limit * 4, int(2.5 * limit), lambda: ran.append(1))]
    )
    assert [d.nbytes for d in descs] == [limit, limit, limit // 2]
    assert descs[1].src_phys == limit
    assert descs[1].dst_phys == limit * 4 + limit
    # The data move rides only the final piece of the segment.
    assert descs[0].execute is None and descs[1].execute is None
    assert descs[2].execute is not None


def test_empty_segment_rejected(machine):
    _, m = machine
    with pytest.raises(HardwareError):
        m.dsa.build_descriptors([(0, 0, 0, None)])


@settings(max_examples=50, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=5 * MiB), min_size=1,
                     max_size=8),
)
def test_batch_splitting_preserves_total_bytes(lengths):
    """Hypothesis: for arbitrary segment lists, splitting at the
    descriptor-size limit conserves total bytes, respects the per-piece
    limit, and keeps pieces contiguous within each segment."""
    eng = Engine()
    m = Machine(eng, modern_server())
    limit = m.params.dsa_max_desc_bytes
    offset = 0
    segments = []
    for n in lengths:
        segments.append((offset, offset + 64 * MiB, n, None))
        offset += n
    descs = m.dsa.build_descriptors(segments)
    assert sum(d.nbytes for d in descs) == sum(lengths)
    assert all(1 <= d.nbytes <= limit for d in descs)
    # Contiguity: pieces of one segment tile its range exactly.
    i = 0
    for src, dst, n, _ in segments:
        at = src
        while at < src + n:
            d = descs[i]
            assert d.src_phys == at and d.dst_phys == dst + (at - src)
            at += d.nbytes
            i += 1
    assert i == len(descs)


def test_submission_cost_is_per_batch_not_per_descriptor(machine):
    _, m = machine
    nbytes = (m.params.dsa_batch_max + 1) * m.params.dsa_max_desc_bytes
    req = _request(machine, nbytes)
    assert len(req.descriptors) == m.params.dsa_batch_max + 1
    assert m.dsa.batch_count(req) == 2
    assert m.dsa.submission_cost(req) == pytest.approx(
        2 * m.params.dsa_enqueue
    )


# ------------------------------------------------------------- copies
def test_copy_time_matches_device_rate(machine):
    eng, m = machine
    nbytes = 4 * MiB
    req = _request(machine, nbytes)

    def proc():
        m.dsa.submit(req)
        yield req.done
        return eng.now

    (t,) = eng.run_processes([proc])
    per_byte = max(1.0 / m.params.dsa_rate, 2.0 / m.params.dram_bus_rate)
    assert t == pytest.approx(nbytes * per_byte, rel=0.05)


def test_execute_moves_real_bytes_and_counters_advance(machine):
    eng, m = machine
    nbytes = 256 * KiB
    src = np.random.default_rng(7).integers(0, 255, nbytes, dtype=np.uint8)
    dst = np.zeros(nbytes, dtype=np.uint8)

    def move():
        dst[:] = src

    req = _request(machine, nbytes, execute=move)

    def proc():
        m.dsa.submit(req)
        yield req.done

    eng.run_processes([proc])
    assert (dst == src).all()
    assert m.dsa.bytes_copied == nbytes
    assert m.dsa.descriptors_processed == len(req.descriptors)
    assert m.dsa.batches_submitted == 1
    # Submission charged the request's bytes to the submitter's PAPI.
    assert m.papi.total("DMA_BYTES") == nbytes


def test_empty_request_rejected(machine):
    eng, m = machine
    with pytest.raises(HardwareError):
        m.dsa.submit(DsaRequest([], done=eng.event("x")))


def test_copies_bypass_the_cache(machine):
    """A DSA copy must leave the submitter's cache without the payload:
    dirty source lines flush, destination copies invalidate."""
    eng, m = machine
    nbytes = 1 * MiB
    src = m.alloc_phys(nbytes, align=PAGE_SIZE)
    dst = m.alloc_phys(nbytes, align=PAGE_SIZE)

    def proc():
        # Touch both ranges so lines are resident (and dirty) first.
        m.coherence.write(0, *m.line_span(src, nbytes))
        m.coherence.write(0, *m.line_span(dst, nbytes))
        req = DsaRequest(
            m.dsa.build_descriptors([(src, dst, nbytes, None)]),
            done=eng.event("dsa"),
            submitter_core=0,
        )
        m.dsa.submit(req)
        yield req.done

    eng.run_processes([proc])
    cache = m.coherence.cache_of(0)
    lo, hi = m.line_span(dst, nbytes)
    assert cache.resident_lines(lo, hi) == 0


def test_misaligned_descriptor_covers_every_line_it_touches(machine):
    """A 64-byte descriptor starting mid-line spans two lines on each
    side: both source lines flush, both destination lines invalidate."""
    eng, m = machine
    base = m.alloc_phys(2 * PAGE_SIZE)
    src, dst = base + 32, base + PAGE_SIZE + 32
    s0, s1 = m.line_span(src, 64)
    d0, d1 = m.line_span(dst, 64)
    m.coherence.write(0, s0, s1)
    m.coherence.write(0, d0, d1)
    req = DsaRequest(
        m.dsa.build_descriptors([(src, dst, 64, None)]),
        done=eng.event("dsa"),
        submitter_core=0,
    )

    def proc():
        m.dsa.submit(req)
        yield req.done

    eng.run_processes([proc])
    cache = m.coherence.cache_of(0)
    assert cache.peek(s0, s1) == [(s0, s1, False)]
    assert cache.resident_lines(d0, d1) == 0
