"""Tests for the DSA-class copy engine (``machine.dsa``).

The behaviour DSA shares with I/OAT runs through the same ``_check_*``
functions as ``tests/hw/test_dma.py``; the tests below add what only the
DSA configuration of :class:`~repro.hw.dma.DmaEngine` has: per-socket
queues, per-batch doorbells, the completion record and its mode.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hw import Machine, modern_server, xeon_e5345
from repro.kernel.address_space import AddressSpace
from repro.obs import ObsConfig
from repro.sim import Engine
from repro.units import CACHE_LINE, KiB, MiB
from tests.hw.test_dma import (
    _check_bypasses_caches_but_flushes_dirty,
    _check_copy_time_matches_rate,
    _check_descriptor_splitting,
    _check_empty_copy_rejected,
    _check_empty_request_rejected,
    _check_execute_moves_real_bytes,
    _check_misaligned_descriptor_covers_every_line,
    copy,
    make,
    views,
)


# ------------------------------------------------------------ wiring
def test_legacy_presets_have_no_dsa_engine():
    eng = Engine()
    assert Machine(eng, xeon_e5345()).dsa is None


def test_modern_server_has_dsa_engine():
    _, m, dev = make("dsa")
    assert dev is not None and dev.name == "dsa"
    assert dev.channels == m.topo.sockets * m.params.dsa_engines


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


def test_requests_land_on_the_submitters_socket():
    """On two sockets, each request rides an engine of its submitter's
    socket, round-robin within the socket."""
    base = modern_server()
    topo = type(base)(
        name=base.name, sockets=2,
        dies_per_socket=base.dies_per_socket,
        cores_per_die=base.cores_per_die,
        params=base.params.scaled(dsa_engines=2),
    )
    eng = Engine(obs=ObsConfig(spans=True))
    m = Machine(eng, topo)
    other = m.topo.ncores - 1
    assert m.topo.socket_of(other) == 1
    assert m.dsa.channels == 4
    for core in (0, other, other, 0):
        copy(eng, m.dsa, *views(m, 64 * KiB), core=core)
    tracks = [s.track for s in eng.obs.spans if s.name == "dsa.copy"]
    assert tracks == ["dsa.s0e0", "dsa.s1e0", "dsa.s1e1", "dsa.s0e1"]


# ------------------------------------------------------- descriptors
def test_descriptor_splitting():
    _check_descriptor_splitting("dsa")


def test_empty_segment_rejected():
    _check_empty_copy_rejected("dsa")


@settings(max_examples=50, deadline=None)
@given(
    src_lengths=st.lists(
        st.integers(min_value=1, max_value=5 * MiB), min_size=1, max_size=8
    ),
    dst_cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_batch_splitting_preserves_total_bytes(src_lengths, dst_cut):
    """Hypothesis: for arbitrary iovec lists, the lockstep walk conserves
    total bytes, respects the per-descriptor limit, and tiles both sides
    contiguously in order."""
    from repro.kernel.copy import dma_copy

    eng, m, dev = make("dsa")
    limit = dev.max_desc_bytes
    total = sum(src_lengths)
    space = AddressSpace(m, 0)
    srcs = [space.alloc(n).view() for n in src_lengths]
    dst = space.alloc(total)
    cut = int(dst_cut * total)
    dsts = [v for v in (dst.view(0, cut), dst.view(cut)) if v.nbytes]

    def proc():
        req = yield from dma_copy(dev, 0, dsts, srcs)
        return req

    (req,) = eng.run_processes([proc])
    descs = req.descriptors
    assert sum(d.nbytes for d in descs) == total
    assert all(1 <= d.nbytes <= limit for d in descs)
    # Contiguity: the pieces walk both iovec lists in order.
    at = 0
    for d in descs:
        assert d.dst_phys == dst.phys + at
        at += d.nbytes
    i = 0
    for src in srcs:
        at = src.phys
        while at < src.phys + src.nbytes:
            assert descs[i].src_phys == at
            at += descs[i].nbytes
            i += 1
    assert i == len(descs)


def test_submission_cost_is_per_batch_not_per_descriptor():
    eng, m, dev = make("dsa")
    nbytes = (m.params.dsa_batch_max + 1) * m.params.dsa_max_desc_bytes
    req, _, _ = copy(eng, dev, *views(m, nbytes))
    assert len(req.descriptors) == m.params.dsa_batch_max + 1
    assert dev.batch_count(req) == 2
    assert dev.submission_cost(req) == pytest.approx(2 * m.params.dsa_enqueue)
    # No misalignment penalty: an unaligned copy costs the same.
    odd, _, _ = copy(eng, dev, *views(m, 64 * KiB, offset=64))
    assert dev.submission_cost(odd) == m.params.dsa_enqueue


# ------------------------------------------------------------- copies
def test_copy_time_matches_device_rate():
    _check_copy_time_matches_rate("dsa", 4 * MiB)


def test_completion_record_follows_every_request():
    eng, m, dev = make("dsa")
    nbytes = 64 * KiB
    _, submitted, done = copy(eng, dev, *views(m, nbytes))
    copy_time = nbytes * max(1.0 / dev.rate, 2.0 / m.params.dram_bus_rate)
    assert done - submitted == pytest.approx(copy_time + CACHE_LINE / dev.rate)


def test_execute_moves_real_bytes_and_counters_advance():
    _check_execute_moves_real_bytes("dsa", batches=1)


def test_empty_request_rejected():
    _check_empty_request_rejected("dsa")


def test_copies_bypass_the_cache():
    _check_bypasses_caches_but_flushes_dirty("dsa")


def test_misaligned_descriptor_covers_every_line_it_touches():
    _check_misaligned_descriptor_covers_every_line("dsa")
