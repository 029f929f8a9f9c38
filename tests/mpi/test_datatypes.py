"""Tests for MPI datatypes and iovec expansion."""

import pytest

from repro.errors import DatatypeError
from repro.hw import Machine, xeon_e5345
from repro.kernel.address_space import AddressSpace
from repro.mpi.datatypes import BYTE, Contiguous, Indexed, as_views
from repro.sim import Engine


@pytest.fixture()
def buf():
    machine = Machine(Engine(), xeon_e5345())
    return AddressSpace(machine, 0).alloc(4096)


def test_contiguous_iovec(buf):
    t = Contiguous(100)
    views = t.iovec(buf, offset=10)
    assert len(views) == 1
    assert views[0].offset == 10 and views[0].nbytes == 100


def test_contiguous_count(buf):
    views = Contiguous(100).iovec(buf, count=3)
    assert len(views) == 1 and views[0].nbytes == 300


def test_byte_alias(buf):
    assert BYTE.size == 1
    assert BYTE.iovec(buf, count=64)[0].nbytes == 64


def test_contiguous_rejects_bad(buf):
    with pytest.raises(DatatypeError):
        Contiguous(0)
    with pytest.raises(DatatypeError):
        Contiguous(8).iovec(buf, count=0)


def test_indexed_layout(buf):
    t = Indexed([(0, 10), (100, 20), (50, 5)])
    assert t.size == 35
    assert t.extent == 120
    views = t.iovec(buf)
    assert [(v.offset, v.nbytes) for v in views] == [(0, 10), (100, 20), (50, 5)]


def test_indexed_rejects_bad():
    with pytest.raises(DatatypeError):
        Indexed([])
    with pytest.raises(DatatypeError):
        Indexed([(-1, 4)])
    with pytest.raises(DatatypeError):
        Indexed([(0, -1)])


def test_indexed_zero_length_blocks(buf):
    # Zero-length blocks are legal and skipped in the iovec.
    t = Indexed([(0, 8), (100, 0), (200, 4)])
    assert t.size == 12
    views = t.iovec(buf)
    assert [(v.offset, v.nbytes) for v in views] == [(0, 8), (200, 4)]
    assert Indexed([(16, 0)]).iovec(buf) == []


def test_as_views_accepts_buffer_view_list(buf):
    assert as_views(buf)[0].nbytes == 4096
    v = buf.view(0, 10)
    assert as_views(v) == [v]
    assert as_views([v, buf.view(10, 5)])[1].nbytes == 5


def test_as_views_rejects_junk(buf):
    with pytest.raises(DatatypeError):
        as_views("hello")
    with pytest.raises(DatatypeError):
        as_views([])
    with pytest.raises(DatatypeError):
        as_views([buf, buf])  # buffers inside a list are not views
