"""Tests for address spaces, buffers and views."""

import numpy as np
import pytest

from repro.errors import BadAddressError, KernelError
from repro.kernel.address_space import (
    AddressSpace,
    alloc_shared,
    copy_payload,
    total_bytes,
)
from repro.units import PAGE_SIZE


def test_alloc_gives_distinct_physical_ranges(machine):
    sp = AddressSpace(machine, pid=0)
    a = sp.alloc(1000)
    b = sp.alloc(1000)
    assert a.phys != b.phys
    assert abs(a.phys - b.phys) >= 1000
    assert a.page_aligned and b.page_aligned


def test_alloc_rejects_nonpositive(machine):
    sp = AddressSpace(machine, pid=0)
    with pytest.raises(KernelError):
        sp.alloc(0)


def test_buffer_data_is_real_and_zeroed(machine):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(64)
    assert buf.data.shape == (64,)
    assert not buf.data.any()
    buf.data[:] = 7
    assert buf.view(10, 4).array.tolist() == [7, 7, 7, 7]


def test_view_bounds_checked(machine):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(100)
    with pytest.raises(BadAddressError):
        buf.view(90, 20)
    with pytest.raises(BadAddressError):
        buf.view(0, 100).sub(50, 60)


@pytest.mark.parametrize("offset,nbytes", [(-512, 256), (-1, 1), (0, -1)])
def test_sub_view_rejects_negative_offset_or_length(machine, offset, nbytes):
    # A negative offset addresses the buffer before the view: sub(-512,
    # 256) of a view at +1024 would lie at +512, outside it.
    sp = AddressSpace(machine, pid=0)
    view = sp.alloc(4096).view(1024, 1024)
    with pytest.raises(BadAddressError, match=r"sub-view .* of <View .*\+1024:1024>"):
        view.sub(offset, nbytes)


def test_view_phys_and_sub(machine):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(1000)
    v = buf.view(100, 200)
    assert v.phys == buf.phys + 100
    s = v.sub(50, 10)
    assert s.phys == buf.phys + 150
    assert s.nbytes == 10


def test_npages(machine):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(PAGE_SIZE * 2 + 1)
    assert buf.npages == 3
    assert buf.view(0, 1).npages == 1
    assert buf.view(PAGE_SIZE - 1, 2).npages == 2


def test_pin_unpin(machine):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(PAGE_SIZE * 4)
    assert not buf.pinned
    assert buf.pin() == 4
    assert buf.pinned
    buf.unpin()
    assert not buf.pinned
    with pytest.raises(KernelError):
        buf.unpin()


def test_shared_buffer_mappable(machine):
    shm = alloc_shared(machine, 4096, name="ring")
    sp = AddressSpace(machine, pid=0)
    mapped = sp.map_shared(shm)
    assert mapped is shm
    private = sp.alloc(64)
    with pytest.raises(KernelError):
        sp.map_shared(private)


def test_shared_buffers_report_the_shm_owner(machine):
    a = alloc_shared(machine, 4096)
    b = alloc_shared(machine, 8192, name="other")
    for buf in (a, b):
        assert (buf.space.pid, buf.space.name) == (-1, "shm")


def test_total_bytes(machine):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(100)
    assert total_bytes([buf.view(0, 40), buf.view(40, 25)]) == 65


def test_data_isolation_between_buffers(machine):
    sp = AddressSpace(machine, pid=0)
    a, b = sp.alloc(64), sp.alloc(64)
    a.data[:] = 1
    assert not b.data.any()
    assert np.sum(a.data) == 64


# ------------------------------------------------- first-touch payloads
def test_fresh_buffer_holds_no_array_until_touched(machine):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(3000)
    shm = alloc_shared(machine, 4096)
    assert buf._data is None and shm._data is None
    assert buf.data.tobytes() == bytes(3000)
    assert buf.data is buf.data  # one array, kept
    assert shm._data is None  # touching one buffer touches no other


def test_writes_through_views_round_trip(machine):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(256)
    buf.view(16, 8).array[:] = np.arange(1, 9, dtype=np.uint8)
    assert buf.data[16:24].tolist() == list(range(1, 9))
    assert buf.view(20, 4).array.tolist() == [5, 6, 7, 8]
    assert not buf.data[:16].any() and not buf.data[24:].any()


def test_physical_addresses_are_reserved_at_allocation(machine):
    # Payload arrays are lazy; physical ranges are not: they are handed
    # out eagerly and in allocation order, whatever is touched later.
    sp = AddressSpace(machine, pid=0)
    bufs = [
        sp.alloc(100),
        alloc_shared(machine, 8192),
        sp.alloc(5000, align=64),
        sp.alloc(1),
        alloc_shared(machine, 65536),
        sp.alloc(3 * PAGE_SIZE + 1),
    ]
    # Each range starts on its own 64 KiB snoop-filter region.
    assert [b.phys for b in bufs] == [
        0x10000, 0x20000, 0x30000, 0x40000, 0x50000, 0x60000,
    ]
    assert all(b._data is None for b in bufs)


# ------------------------------------------------------- copy_payload
def _bytes_of(buf):
    """The buffer's payload as the program would read it, without
    materialising it."""
    return bytes(buf.nbytes) if buf._data is None else buf._data.tobytes()


def _fill(buf, seed):
    buf.data[:] = np.random.default_rng(seed).integers(0, 256, buf.nbytes)


def _reference(dst_bytes, src_bytes, doff, soff, n):
    """``dst.array[:] = src.array`` on materialised copies."""
    dst = np.frombuffer(dst_bytes, dtype=np.uint8).copy()
    src = np.frombuffer(src_bytes, dtype=np.uint8)
    dst[doff : doff + n] = src[soff : soff + n]
    return dst.tobytes()


@pytest.mark.parametrize("src_state", ["untouched", "written"])
@pytest.mark.parametrize("dst_state", ["untouched", "written", "a5"])
@pytest.mark.parametrize("soff,doff,n", [(0, 0, 300), (7, 13, 123), (299, 0, 1)])
def test_copy_payload_matches_numpy_assignment(
    machine, src_state, dst_state, soff, doff, n
):
    sp = AddressSpace(machine, pid=0)
    src, dst = sp.alloc(300), sp.alloc(300)
    if src_state == "written":
        _fill(src, 1)
    if dst_state == "written":
        _fill(dst, 2)
    elif dst_state == "a5":
        dst.data[:] = 0xA5
    expected = _reference(_bytes_of(dst), _bytes_of(src), doff, soff, n)
    copy_payload(dst.view(doff, n), src.view(soff, n))
    assert _bytes_of(dst) == expected
    # Only a written source materialises the destination; the source
    # itself is never materialised.
    assert (src._data is None) == (src_state == "untouched")
    assert (dst._data is None) == (
        src_state == "untouched" and dst_state == "untouched"
    )


@pytest.mark.parametrize("state", ["untouched", "written"])
@pytest.mark.parametrize("soff,doff", [(0, 10), (10, 0), (5, 5)])
def test_overlapping_views_in_one_buffer(machine, state, soff, doff):
    sp = AddressSpace(machine, pid=0)
    buf = sp.alloc(64)
    if state == "written":
        _fill(buf, 3)
    before = _bytes_of(buf)
    expected = _reference(before, before, doff, soff, 40)
    copy_payload(buf.view(doff, 40), buf.view(soff, 40))
    assert _bytes_of(buf) == expected
    assert (buf._data is None) == (state == "untouched")


@pytest.mark.parametrize("src_state", ["untouched", "written"])
@pytest.mark.parametrize("dst_state", ["untouched", "written"])
def test_copy_payload_rejects_unequal_lengths(machine, src_state, dst_state):
    sp = AddressSpace(machine, pid=0)
    src, dst = sp.alloc(64), sp.alloc(64)
    for buf, state in ((src, src_state), (dst, dst_state)):
        if state == "written":
            buf.data[:] = 1
    before = _bytes_of(dst)
    with pytest.raises(ValueError):
        copy_payload(dst.view(0, 32), src.view(0, 16))
    with pytest.raises(ValueError):
        copy_payload(dst.view(0, 16), src.view(0, 32))
    assert _bytes_of(dst) == before
