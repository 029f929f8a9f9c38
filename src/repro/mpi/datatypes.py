"""MPI datatypes as iovec generators.

A datatype describes a memory layout; applied to a buffer it yields the
iovec (list of :class:`~repro.kernel.address_space.BufferView`) that the
transfer engines consume directly.  This is how the reproduction models
KNEM's "vectorial buffers" advantage over LIMIC2 (Sec. 5): noncontiguous
sends need no intermediate pack, the kernel walks the segment list.

All quantities are in bytes (the simulation has no element types; MPI
element counts translate to byte lengths at the benchmark layer).
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.errors import DatatypeError
from repro.kernel.address_space import Buffer, BufferView

__all__ = [
    "Datatype",
    "Contiguous",
    "Indexed",
    "BYTE",
    "as_views",
]


class Datatype:
    """Abstract layout: ``size`` payload bytes spread over ``extent``."""

    size: int
    extent: int

    def iovec(self, buf: Buffer, offset: int = 0, count: int = 1) -> list[BufferView]:
        """Expand ``count`` elements of this type at ``buf+offset``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} size={self.size} extent={self.extent}>"


class Contiguous(Datatype):
    """``nbytes`` consecutive bytes."""

    def __init__(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise DatatypeError(f"contiguous size must be positive: {nbytes}")
        self.size = nbytes
        self.extent = nbytes

    def iovec(self, buf: Buffer, offset: int = 0, count: int = 1) -> list[BufferView]:
        if count <= 0:
            raise DatatypeError(f"count must be positive: {count}")
        return [buf.view(offset, self.size * count)]


BYTE = Contiguous(1)


class Indexed(Datatype):
    """Explicit (displacement, length) pairs, in bytes.

    Zero-length blocks are legal (an index list built from a sparse
    graph may have empty entries, as in MPI); they contribute nothing
    to ``size`` and are skipped when expanding the iovec.
    """

    def __init__(self, blocks: Sequence[tuple[int, int]]) -> None:
        if not blocks:
            raise DatatypeError("indexed type needs at least one block")
        for disp, length in blocks:
            if disp < 0 or length < 0:
                raise DatatypeError(f"bad indexed block ({disp}, {length})")
        self.blocks = [(int(d), int(n)) for d, n in blocks]
        self.size = sum(n for _, n in self.blocks)
        self.extent = max(d + n for d, n in self.blocks)

    def iovec(self, buf: Buffer, offset: int = 0, count: int = 1) -> list[BufferView]:
        views = []
        for rep in range(count):
            base = offset + rep * self.extent
            for disp, length in self.blocks:
                if length > 0:
                    views.append(buf.view(base + disp, length))
        return _coalesce(views)


def _coalesce(views: list[BufferView]) -> list[BufferView]:
    """Merge address-adjacent views from the same buffer."""
    out: list[BufferView] = []
    for v in views:
        if (
            out
            and out[-1].buffer is v.buffer
            and out[-1].offset + out[-1].nbytes == v.offset
        ):
            out[-1] = BufferView(v.buffer, out[-1].offset, out[-1].nbytes + v.nbytes)
        else:
            out.append(v)
    return out


BufLike = Union[Buffer, BufferView, Sequence[BufferView]]


def as_views(buf: BufLike) -> list[BufferView]:
    """Normalize any accepted buffer argument to an iovec list."""
    if isinstance(buf, Buffer):
        return [buf.view()]
    if isinstance(buf, BufferView):
        return [buf]
    if isinstance(buf, (list, tuple)):
        if not buf or not all(isinstance(v, BufferView) for v in buf):
            raise DatatypeError(f"expected a non-empty list of views, got {buf!r}")
        return list(buf)
    raise DatatypeError(f"cannot interpret {type(buf).__name__} as a message buffer")
