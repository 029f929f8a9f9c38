"""UNIX pipes with ``writev``, ``vmsplice`` and ``readv``.

Sec. 3.1: the Linux kernel caps a pipe at ``PIPE_BUFFERS`` (16) pages of
4 KiB — 64 KiB in flight.  ``vmsplice`` *attaches* the sender's pages to
the pipe instead of copying them; the receiver's ``readv`` then copies
straight from the sender's pages into the destination buffer: one copy
total.  ``writev`` is the classic two-copy path (user -> pipe pages ->
user) used as the Fig. 3 comparison.

Costs modeled per call: the syscall itself, vmsplice's VFS bookkeeping
(``t_vfs_chunk``), per-page attachment (``t_splice_page``), and the
actual copies through :func:`repro.kernel.copy.cpu_copy` — so pipe-page
reuse pollutes the caches exactly like the real double-buffer does.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.errors import PipeError
from repro.kernel.address_space import Buffer, BufferView
from repro.kernel.copy import cpu_copy
from repro.kernel.syscall import syscall
from repro.sim.events import Event
from repro.sim.resources import FifoLock
from repro.units import PAGE_SIZE, ceil_div

__all__ = ["Pipe"]


class _Segment:
    """Bytes queued in the pipe: either copied kernel pages or spliced
    (attached) user pages."""

    __slots__ = ("views", "spliced")

    def __init__(self, views: list[BufferView], spliced: bool) -> None:
        self.views = views
        self.spliced = spliced

    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.views)


class Pipe:
    """A simulated UNIX pipe between two processes on one node."""

    def __init__(self, machine, capacity: int | None = None, name: str = "pipe") -> None:
        self.machine = machine
        self.name = name
        self.capacity = capacity or machine.params.pipe_capacity
        # Kernel pages backing the copied (writev) path; a ring, so the
        # same physical lines are reused — the cache-pollution source.
        self._kernel_ring: Buffer = _alloc_kernel_ring(machine, self.capacity, name)
        self._ring_offset = 0
        self._segments: deque[_Segment] = deque()
        self._bytes = 0
        self._readers: deque[Event] = deque()
        self._writers: deque[Event] = deque()
        #: The pipe inode mutex: copies into and out of the pipe hold
        #: it, so a writev producer and a readv consumer serialize —
        #: one of the costs vmsplice avoids by only attaching page
        #: pointers under the lock.
        self.lock = FifoLock(machine.engine, name=f"{name}.mutex")
        #: Pipe-state maintenance time per lock session (buffer indices,
        #: wait queues); set by the owner based on the endpoints'
        #: locality — the state cachelines bounce across dies.
        self.sync_cost = 0.0
        self.closed = False

    # ----------------------------------------------------------- state
    @property
    def queued_bytes(self) -> int:
        return self._bytes

    @property
    def space(self) -> int:
        return self.capacity - self._bytes

    def close(self) -> None:
        self.closed = True
        for evt in list(self._readers) + list(self._writers):
            if not evt.triggered:
                evt.fail(PipeError(f"{self.name} closed"))
        self._readers.clear()
        self._writers.clear()

    def _wake_readers(self) -> None:
        while self._readers and self._bytes > 0:
            self._readers.popleft().succeed()

    def _wake_writers(self) -> None:
        while self._writers and self.space > 0:
            self._writers.popleft().succeed()

    def _wait_space(self):
        while self.space <= 0:
            evt = self.machine.engine.event(f"{self.name}.space")
            self._writers.append(evt)
            yield evt

    def _wait_data(self):
        while self._bytes <= 0:
            evt = self.machine.engine.event(f"{self.name}.data")
            self._readers.append(evt)
            yield evt

    def _check_open(self) -> None:
        if self.closed:
            raise PipeError(f"{self.name} is closed")

    # ------------------------------------------------------------ ops
    def writev(self, core: int, views: Sequence[BufferView], parent=None):
        """Two-copy path: copy user pages into kernel pipe pages.

        Blocks (in chunks) when the pipe is full.  Generator; returns
        bytes written.
        """
        self._check_open()
        yield from syscall(self.machine, core, parent=parent, name="pipe.writev")
        written = 0
        for view in views:
            offset = 0
            while offset < view.nbytes:
                yield from self._wait_space()
                n = min(view.nbytes - offset, self.space)
                kview = self._ring_view(n)
                yield self.lock.acquire()
                try:
                    yield from cpu_copy(
                        self.machine, core, [kview], [view.sub(offset, n)],
                        parent=parent,
                    )
                    if self.sync_cost:
                        self.machine.papi.add(core, "CPU_BUSY", self.sync_cost)
                        yield self.machine.cores[core].busy(self.sync_cost)
                finally:
                    self.lock.release()
                self._segments.append(_Segment([kview], spliced=False))
                self._bytes += n
                offset += n
                written += n
                self._wake_readers()
        return written

    def vmsplice(self, core: int, views: Sequence[BufferView], parent=None):
        """Single-copy path: attach user pages to the pipe (no copy).

        Charges the syscall, the VFS chunk bookkeeping and per-page
        attachment costs; blocks when the pipe is full.  Generator;
        returns bytes spliced.
        """
        self._check_open()
        params = self.machine.params
        obs = self.machine.engine.obs
        yield from syscall(
            self.machine, core, extra=params.t_vfs_chunk,
            parent=parent, name="pipe.vmsplice",
        )
        spliced = 0
        for view in views:
            offset = 0
            while offset < view.nbytes:
                yield from self._wait_space()
                n = min(view.nbytes - offset, self.space)
                piece = view.sub(offset, n)
                pages = ceil_div(n, PAGE_SIZE)
                cost = pages * params.t_splice_page
                yield self.lock.acquire()
                try:
                    span = None
                    if obs.enabled:
                        span = obs.begin(
                            "splice.attach", kind="pin", track=f"core{core}",
                            parent=parent, pages=pages, nbytes=n,
                        )
                    self.machine.papi.add(core, "CPU_BUSY", cost)
                    yield self.machine.cores[core].busy(cost)
                    obs.end(span)
                finally:
                    self.lock.release()
                self._segments.append(_Segment([piece], spliced=True))
                self._bytes += n
                offset += n
                spliced += n
                self._wake_readers()
        return spliced

    def readv(self, core: int, views: Sequence[BufferView], parent=None):
        """Copy queued pipe content into the destination views.

        For spliced segments this reads straight from the *sender's*
        pages — the single copy of the vmsplice strategy.  Blocks until
        at least one byte is available; returns when the destination is
        full or the pipe drains after delivering some data (short-read
        semantics, like the real readv on a pipe).  Generator; returns
        bytes read.
        """
        self._check_open()
        yield from syscall(self.machine, core, parent=parent, name="pipe.readv")
        read = 0
        want = sum(v.nbytes for v in views)
        vi, voff = 0, 0
        while read < want:
            if self._bytes <= 0:
                if read > 0:
                    break  # short read
                yield from self._wait_data()
            seg = self._segments[0]
            src = seg.views[0]
            dst = views[vi]
            n = min(src.nbytes, dst.nbytes - voff)
            yield self.lock.acquire()
            try:
                yield from cpu_copy(
                    self.machine, core, [dst.sub(voff, n)], [src.sub(0, n)],
                    parent=parent,
                )
                if self.sync_cost:
                    self.machine.papi.add(core, "CPU_BUSY", self.sync_cost)
                    yield self.machine.cores[core].busy(self.sync_cost)
            finally:
                self.lock.release()
            if n < src.nbytes:
                seg.views[0] = src.sub(n, src.nbytes - n)
            else:
                seg.views.pop(0)
                if not seg.views:
                    self._segments.popleft()
            self._bytes -= n
            read += n
            voff += n
            if voff >= dst.nbytes:
                vi += 1
                voff = 0
                if vi >= len(views):
                    break
            self._wake_writers()
        self._wake_writers()
        return read

    def detach(self, core: int, max_bytes: int, parent=None):
        """Pop up to ``max_bytes`` of queued content *without copying*,
        returning the backing views (sender pages for spliced segments,
        kernel ring pages for written ones).

        This is the receiver half of the experimental vmsplice+I/OAT
        integration (the paper's Sec. 6 future work): a DMA engine can
        then move the data instead of the CPU.  Blocks until at least
        one byte is queued.  Generator; returns a list of views.
        """
        self._check_open()
        if max_bytes <= 0:
            raise PipeError(f"detach needs a positive byte budget, got {max_bytes}")
        yield from syscall(self.machine, core, parent=parent, name="pipe.detach")
        yield from self._wait_data()
        views: list[BufferView] = []
        taken = 0
        while self._segments and taken < max_bytes:
            seg = self._segments[0]
            src = seg.views[0]
            n = min(src.nbytes, max_bytes - taken)
            views.append(src.sub(0, n))
            if n < src.nbytes:
                seg.views[0] = src.sub(n, src.nbytes - n)
            else:
                seg.views.pop(0)
                if not seg.views:
                    self._segments.popleft()
            self._bytes -= n
            taken += n
        self._wake_writers()
        return views

    # -------------------------------------------------------- internals
    def _ring_view(self, nbytes: int) -> BufferView:
        """Next ``nbytes`` of the kernel page ring (wraps around)."""
        if nbytes > self.capacity:
            raise PipeError(f"chunk {nbytes} exceeds pipe capacity {self.capacity}")
        if self._ring_offset + nbytes > self.capacity:
            self._ring_offset = 0
        view = self._kernel_ring.view(self._ring_offset, nbytes)
        self._ring_offset += nbytes
        return view


class _KernelSpace:
    """The owner every pipe ring buffer reports."""

    pid = -2
    name = "kernel"


_KERNEL_SPACE = _KernelSpace()


def _alloc_kernel_ring(machine, capacity: int, name: str) -> Buffer:
    phys = machine.alloc_phys(capacity)
    return Buffer(_KERNEL_SPACE, f"{name}.ring", capacity, phys, shared=True)
