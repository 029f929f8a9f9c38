"""KNEM: the dedicated kernel data-transfer pseudo-device (Sec. 3.2-3.4).

Command protocol (paper Fig. 1):

1. the sender *declares* a send buffer (``send_cmd``) — the driver pins
   the pages, records the virtual segment list, and returns a cookie;
2. the cookie travels to the receiver through the MPI rendezvous
   handshake (user space, outside this module);
3. the receiver passes its buffer plus the cookie to ``recv_cmd`` and
   the kernel moves the data directly between the two user buffers.

Operating modes (paper Figs. 2, 6):

- **synchronous** kernel copy on the receiver's core (default);
- **asynchronous kernel-thread** copy: a kthread bound to the
  receiver's core performs the copy while the user process returns to
  user space — they compete for the core;
- **I/OAT offload**: descriptors are submitted to the DMA engine;
  synchronous mode polls the device before returning; asynchronous mode
  appends the one-byte status-write descriptor and returns immediately.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional, Sequence

from repro.errors import CookieError, KnemError
from repro.kernel.address_space import BufferView, total_bytes
from repro.kernel.copy import cpu_copy, dma_copy
from repro.kernel.regcache import RegistrationCache
from repro.kernel.syscall import syscall
from repro.sim.events import Event

__all__ = ["KnemDevice", "KnemFlags", "KnemStatus", "KnemCookie"]


class KnemFlags(enum.Flag):
    """Receive-command flags (the paper's I/OAT and async options)."""

    NONE = 0
    IOAT = enum.auto()
    ASYNC = enum.auto()


class KnemStatus:
    """The status variable the driver writes ``Success`` into.

    Synchronous commands return it already triggered; asynchronous ones
    return it pending, and the library polls (``yield status.done``).
    """

    def __init__(self, engine, nbytes: int) -> None:
        self.done: Event = engine.event("knem-status")
        self.nbytes = nbytes
        #: Observability span covering the command until the driver
        #: writes Success (closed by ``_finish``; None when disabled).
        self.span = None

    @property
    def completed(self) -> bool:
        return self.done.triggered


class KnemCookie:
    """A declared send buffer: pinned pages + virtual segment list."""

    __slots__ = ("cookie_id", "views", "owner_core", "active")

    def __init__(self, cookie_id: int, views: list[BufferView], owner_core: int):
        self.cookie_id = cookie_id
        self.views = views
        self.owner_core = owner_core
        self.active = True

    @property
    def nbytes(self) -> int:
        return total_bytes(self.views)


class KnemDevice:
    """One per machine (a pseudo-character device, ``/dev/knem``)."""

    def __init__(
        self, machine, reg_cache: Optional[RegistrationCache] = None
    ) -> None:
        self.machine = machine
        self._ids = itertools.count(1)
        self._cookies: dict[int, KnemCookie] = {}
        self.copies_completed = 0
        #: Optional registration cache amortizing repeated pins (an
        #: extension beyond the paper's KNEM 0.5; see
        #: :mod:`repro.kernel.regcache`).
        self.reg_cache = reg_cache

    # ------------------------------------------------------------ send
    def send_cmd(self, core: int, views: Sequence[BufferView], parent=None):
        """Declare a send buffer; returns the cookie id (generator —
        arguments are validated eagerly, before the first yield).

        The driver always pins the send buffer (Sec. 3.3: "the send
        KNEM command will always pin the sender buffer").
        """
        if not views or total_bytes(views) == 0:
            raise KnemError("empty send declaration")
        return self._send_cmd(core, list(views), parent)

    def _send_cmd(self, core: int, views: list[BufferView], parent=None):
        params = self.machine.params
        obs = self.machine.engine.obs
        span = None
        if obs.enabled:
            span = obs.begin(
                "knem.declare", kind="cmd", track=f"core{core}",
                parent=parent, nbytes=total_bytes(views),
            )
        yield from syscall(
            self.machine, core, extra=params.t_knem_cmd,
            parent=span, name="knem.ioctl",
        )
        yield from self._pin(core, views, parent=span)
        cookie_id = next(self._ids)
        self._cookies[cookie_id] = KnemCookie(cookie_id, list(views), core)
        obs.end(span, cookie=cookie_id)
        return cookie_id

    def cookie(self, cookie_id: int) -> KnemCookie:
        try:
            return self._cookies[cookie_id]
        except KeyError:
            raise CookieError(f"unknown KNEM cookie {cookie_id}") from None

    # ------------------------------------------------------------ recv
    def recv_cmd(
        self,
        core: int,
        cookie_id: int,
        dst_views: Sequence[BufferView],
        flags: KnemFlags = KnemFlags.NONE,
        parent=None,
    ):
        """Move the cookie's data into ``dst_views``.  Generator;
        returns a :class:`KnemStatus` (already completed in the
        synchronous modes)."""
        params = self.machine.params
        obs = self.machine.engine.obs
        span = None
        if obs.enabled:
            span = obs.begin(
                "knem.recv", kind="cmd", track=f"core{core}",
                parent=parent, cookie=cookie_id, flags=str(flags),
            )
        yield from syscall(
            self.machine, core, extra=params.t_knem_cmd,
            parent=span, name="knem.ioctl",
        )
        cookie = self.cookie(cookie_id)
        if not cookie.active:
            raise CookieError(f"cookie {cookie_id} already consumed")
        nbytes = min(cookie.nbytes, total_bytes(dst_views))
        if nbytes <= 0:
            raise KnemError("empty receive")
        status = KnemStatus(self.machine.engine, nbytes)
        # The span outlives this generator in the async modes; _finish
        # closes it when the driver writes Success.
        status.span = span
        obs.annotate(span, nbytes=nbytes)

        if flags & KnemFlags.IOAT:
            # The receive buffer is pinned only when I/OAT is used.
            yield from self._pin(core, dst_views, parent=span)
            yield from self._recv_ioat(core, cookie, dst_views, flags, status)
        elif flags & KnemFlags.ASYNC:
            self._spawn_kthread(core, cookie, dst_views, status)
        else:
            yield from self._copy_sync(core, cookie, dst_views, status)
        return status

    def pin(self, core: int, views: Sequence[BufferView], parent=None):
        """Pin ``views`` through the device's registration cache; used
        by backends (e.g. the DSA LMT) that borrow the cookie plumbing
        but move the data on another engine.  Generator."""
        yield from self._pin(core, list(views), parent=parent)

    def consume(self, cookie_id: int) -> None:
        """Retire a cookie whose data was moved outside this device
        (the DSA path): releases the declaration without counting a
        KNEM copy."""
        cookie = self.cookie(cookie_id)
        cookie.active = False
        self._cookies.pop(cookie.cookie_id, None)

    # ------------------------------------------------------- internals
    def _pin(self, core: int, views: Sequence[BufferView], parent=None):
        if self.reg_cache is not None:
            pages = self.reg_cache.lookup_pages_to_pin(list(views))
        else:
            pages = sum(v.npages for v in views)
        cost = pages * self.machine.params.t_pin_page
        self.machine.papi.add(core, "PAGES_PINNED", pages)
        self.machine.papi.add(core, "CPU_BUSY", cost)
        obs = self.machine.engine.obs
        span = None
        if obs.enabled:
            span = obs.begin(
                "knem.pin", kind="pin", track=f"core{core}",
                parent=parent, pages=pages,
            )
        yield self.machine.cores[core].busy(cost)
        obs.end(span)

    def _finish(self, cookie: KnemCookie, status: KnemStatus) -> None:
        cookie.active = False
        self._cookies.pop(cookie.cookie_id, None)
        self.copies_completed += 1
        self.machine.engine.obs.end(status.span)
        status.done.succeed(self.machine.engine.now)

    def _copy_sync(self, core, cookie, dst_views, status):
        yield from cpu_copy(
            self.machine,
            core,
            list(dst_views),
            cookie.views,
            chunk=self.machine.params.knem_chunk,
            parent=status.span,
        )
        self._finish(cookie, status)

    def _spawn_kthread(self, core, cookie, dst_views, status) -> None:
        """Asynchronous non-I/OAT mode: a kernel thread on the
        receiver's core performs the copy (and competes with the user
        process for that core — the Fig. 6 slowdown)."""

        def kthread():
            yield from cpu_copy(
                self.machine,
                core,
                list(dst_views),
                cookie.views,
                chunk=self.machine.params.knem_chunk,
                parent=status.span,
            )
            self._finish(cookie, status)

        self.machine.engine.process(
            kthread(), name=f"knem-kthread-c{cookie.cookie_id}", daemon=True
        )

    def _recv_ioat(self, core, cookie, dst_views, flags, status):
        machine = self.machine
        # Descriptor submission runs on the receiver's core.
        request = yield from dma_copy(
            machine.dma, core, list(dst_views), cookie.views,
            status_write=bool(flags & KnemFlags.ASYNC), span=status.span,
        )

        if flags & KnemFlags.ASYNC:
            # Return to user space immediately; the status-write
            # descriptor completes the transfer in the background.
            def waiter():
                yield request.done
                self._finish(cookie, status)

            machine.engine.process(
                waiter(), name=f"knem-ioat-wait-c{cookie.cookie_id}", daemon=True
            )
        else:
            # Synchronous: the driver polls the device for completion
            # before returning to user space (busy-waiting on-core).
            yield request.done
            self._finish(cookie, status)
