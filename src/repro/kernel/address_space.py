"""Process address spaces, buffers and iovec views.

Each simulated process owns an :class:`AddressSpace`.  Allocations are
backed by two things at once:

- a **physical range** from the machine's allocator, which is what the
  cache/coherence model indexes.  It is reserved when the buffer is
  allocated, so addresses depend only on the allocation order; and
- a **NumPy byte array**, so every simulated transfer moves real data —
  MPI correctness is testable end to end.  Like a demand-zero page, the
  array appears, zero-filled, the first time the payload is read or
  written (:attr:`Buffer.data`), so buffers a run never reads or writes
  (most Nemesis eager cells) cost no host memory.

Every payload move goes through :func:`copy_payload`.  Untouched memory
reads as zeros, so copying it moves no bytes: an untouched destination
stays untouched, a touched one has the range zero-filled.  A run whose
application never writes its buffers (the IMB and NAS workloads only
time their scans) therefore allocates no payload array at all — and,
since NumPy itself is imported on the first touch, never loads it.

A :class:`BufferView` is one iovec entry ``(buffer, offset, nbytes)``;
noncontiguous datatypes and KNEM's "vectorial buffers" are lists of
views.  Page pinning is tracked per buffer (KNEM pins send buffers
always, receive buffers when I/OAT is used — Sec. 3.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import BadAddressError, KernelError
from repro.units import PAGE_SIZE, ceil_div

if TYPE_CHECKING:
    import numpy as np

__all__ = ["AddressSpace", "Buffer", "BufferView", "copy_payload"]


class Buffer:
    """A contiguous allocation in one address space."""

    __slots__ = ("space", "name", "nbytes", "phys", "_data", "shared", "_pinned")

    def __init__(
        self,
        space: "AddressSpace",
        name: str,
        nbytes: int,
        phys: int,
        shared: bool = False,
    ) -> None:
        self.space = space
        self.name = name
        self.nbytes = nbytes
        self.phys = phys
        self._data: Optional[np.ndarray] = None
        self.shared = shared
        self._pinned = 0

    @property
    def data(self) -> np.ndarray:
        """The payload bytes, zero-filled on first touch."""
        data = self._data
        if data is None:
            import numpy as np

            data = self._data = np.zeros(self.nbytes, dtype=np.uint8)
        return data

    def __repr__(self) -> str:
        return f"<Buffer {self.name} {self.nbytes}B phys=0x{self.phys:x}>"

    def view(self, offset: int = 0, nbytes: Optional[int] = None) -> "BufferView":
        nbytes = self.nbytes - offset if nbytes is None else nbytes
        return BufferView(self, offset, nbytes)

    def whole(self) -> list["BufferView"]:
        return [self.view()]

    # -- pinning --------------------------------------------------------
    @property
    def pinned(self) -> bool:
        return self._pinned > 0

    def pin(self) -> int:
        """Pin the buffer's pages; returns the page count to charge."""
        self._pinned += 1
        return self.npages

    def unpin(self) -> None:
        if self._pinned <= 0:
            raise KernelError(f"unpin of unpinned buffer {self.name}")
        self._pinned -= 1

    @property
    def npages(self) -> int:
        first = self.phys // PAGE_SIZE
        last = ceil_div(self.phys + self.nbytes, PAGE_SIZE)
        return last - first

    @property
    def page_aligned(self) -> bool:
        return self.phys % PAGE_SIZE == 0


class BufferView:
    """One iovec entry: a byte range within a buffer."""

    __slots__ = ("buffer", "offset", "nbytes")

    def __init__(self, buffer: Buffer, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > buffer.nbytes:
            raise BadAddressError(
                f"view [{offset}, {offset + nbytes}) outside {buffer!r}"
            )
        self.buffer = buffer
        self.offset = offset
        self.nbytes = nbytes

    def __repr__(self) -> str:
        return f"<View {self.buffer.name}+{self.offset}:{self.nbytes}>"

    @property
    def phys(self) -> int:
        return self.buffer.phys + self.offset

    @property
    def array(self) -> np.ndarray:
        data = self.buffer._data
        if data is None:
            data = self.buffer.data
        return data[self.offset : self.offset + self.nbytes]

    def sub(self, offset: int, nbytes: int) -> "BufferView":
        if offset + nbytes > self.nbytes:
            raise BadAddressError(f"sub-view [{offset},{offset+nbytes}) of {self!r}")
        return BufferView(self.buffer, self.offset + offset, nbytes)

    @property
    def npages(self) -> int:
        first = self.phys // PAGE_SIZE
        last = ceil_div(self.phys + max(self.nbytes, 1), PAGE_SIZE)
        return last - first


def copy_payload(dst: BufferView, src: BufferView) -> None:
    """Move ``src``'s bytes into ``dst`` (equal lengths), as
    ``dst.array[:] = src.array`` would, without materialising an
    untouched source: its bytes are zeros, so an untouched destination
    is left as it is and a touched one is zero-filled."""
    n = dst.nbytes
    if src.nbytes != n:
        raise ValueError(f"copy of {src!r} into {dst!r}: lengths differ")
    src_data = src.buffer._data
    if src_data is None:
        dst_data = dst.buffer._data
        if dst_data is not None:
            dst_data[dst.offset : dst.offset + n] = 0
        return
    dst.buffer.data[dst.offset : dst.offset + n] = src_data[
        src.offset : src.offset + n
    ]


def total_bytes(views: Iterable[BufferView]) -> int:
    return sum(v.nbytes for v in views)


class AddressSpace:
    """One process's virtual memory."""

    def __init__(self, machine, pid: int, name: str = "") -> None:
        self.machine = machine
        self.pid = pid
        self.name = name or f"pid{pid}"
        self.buffers: list[Buffer] = []

    def alloc(
        self, nbytes: int, name: str = "", align: int = PAGE_SIZE
    ) -> Buffer:
        """Allocate a private buffer (page-aligned by default, like a
        fresh mmap)."""
        if nbytes <= 0:
            raise KernelError(f"allocation must be positive, got {nbytes}")
        phys = self.machine.alloc_phys(nbytes, align=align)
        buf = Buffer(self, name or f"{self.name}.buf{len(self.buffers)}", nbytes, phys)
        self.buffers.append(buf)
        return buf

    def map_shared(self, shared: Buffer) -> Buffer:
        """Map an existing shared buffer into this space (same physical
        lines — that is the whole point of a shared-memory copy ring)."""
        if not shared.shared:
            raise KernelError(f"{shared.name} is not a shared mapping")
        return shared


class _SharedSpace:
    """The owner every shared-memory buffer reports."""

    pid = -1
    name = "shm"


_SHARED_SPACE = _SharedSpace()


def alloc_shared(machine, nbytes: int, name: str = "shm") -> Buffer:
    """Allocate a shared-memory region outside any particular space."""
    if nbytes <= 0:
        raise KernelError(f"allocation must be positive, got {nbytes}")
    phys = machine.alloc_phys(nbytes)
    return Buffer(_SHARED_SPACE, name, nbytes, phys, shared=True)
