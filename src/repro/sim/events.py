"""Waitable primitives for the simulation engine."""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Sequence

from repro.errors import SimulationError

__all__ = ["Event", "Timeout", "Join", "AllOf", "AnyOf"]


class Event:
    """A one-shot waitable that processes can ``yield`` on.

    An event starts *untriggered*.  :meth:`succeed` delivers a value to
    every waiter; :meth:`fail` delivers an exception (raised inside the
    waiting process at the yield point).  Triggering twice is an error —
    it almost always indicates a protocol bug in the caller.
    """

    __slots__ = ("engine", "name", "_waiters", "triggered", "ok", "value")

    def __init__(self, engine: "Engine", name: str = "") -> None:  # noqa: F821
        self.engine = engine
        self.name = name
        #: ``callback(event)`` functions, or ``(composite, index)``
        #: pairs registered by :class:`AllOf`/:class:`AnyOf`.
        self._waiters: list = []
        self.triggered = False
        self.ok = False
        self.value: Any = None

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name or hex(id(self))} {state}>"

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception delivered to waiters."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"Event.fail needs an exception, got {exc!r}")
        self._trigger(ok=False, value=exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.ok = ok
        self.value = value
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        schedule = self.engine.schedule
        for waiter in waiters:
            if type(waiter) is tuple:
                # A composite parent: its bookkeeping is plain state, so
                # it updates now; its own waiters are woken deferred.
                composite, index = waiter
                composite._on_child(index, self)
            else:
                # Deferred delivery keeps wake order deterministic and
                # avoids re-entrant process stepping.
                schedule(0.0, waiter, self)

    # -- waiting ------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; fires immediately (deferred)
        if the event already triggered."""
        if self.triggered:
            self.engine.schedule(0.0, callback, self)
        else:
            self._waiters.append(callback)


class Timeout:
    """Sleep for ``delay`` simulated seconds.

    ``yield 0.5`` and ``yield Timeout(0.5)`` are equivalent; the class
    form exists so a value can be attached (delivered to the yield).
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if not 0 <= delay < inf:
            raise SimulationError(
                f"negative timeout: {delay}" if delay < 0
                else f"timeout is not a finite delay: {delay}"
            )
        self.delay = float(delay)
        self.value = value

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Join(Event):
    """A countdown latch: succeeds when ``count`` arrivals have come in.

    The cheap form of :class:`AllOf` for jobs that only need joining: a
    copy chunk's core, DRAM and FSB requests
    (:meth:`ProcessorSharing.request` with ``join=``), or a descriptor's
    device timer and bus transfer.  Each finished part calls
    :meth:`arrive`; the last one triggers the latch (value ``None``) and
    wakes its waiters deferred, at the instant and in the order an
    ``AllOf`` of the parts' events would.
    """

    __slots__ = ("_pending",)

    def __init__(self, engine: "Engine", count: int, name: str = "join") -> None:  # noqa: F821
        if count < 1:
            raise SimulationError(f"Join needs a positive count, got {count}")
        # Event.__init__ spelled out: a latch is made for every chunk.
        self.engine = engine
        self.name = name
        self._waiters = []
        self.triggered = False
        self.ok = False
        self.value = None
        self._pending = count

    def arrive(self, value: Any = None) -> None:
        """One part finished (``value`` is ignored)."""
        self._pending -= 1
        if self._pending == 0:
            self._trigger(True, None)
        elif self._pending < 0:
            raise SimulationError(f"{self!r}: more arrivals than its count")


class _Composite(Event):
    """Base for AllOf/AnyOf: an Event derived from child events.

    A composite registers itself on each pending child as a
    ``(composite, index)`` pair, and the child calls :meth:`_on_child`
    synchronously when it triggers; children already triggered are
    taken in index order during construction.  The composite's own
    waiters (processes) are still woken deferred, like any event's.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, engine: "Engine", children: Sequence[Event]) -> None:  # noqa: F821
        super().__init__(engine, name=type(self).__name__)
        self._children = list(children)
        self._pending = len(self._children)
        if not self._children:
            raise SimulationError(f"{type(self).__name__} needs at least one event")
        for index, child in enumerate(self._children):
            if child.triggered:
                self._on_child(index, child)
            else:
                child._waiters.append((self, index))

    def _on_child(self, index: int, child: Event) -> None:
        raise NotImplementedError


class AllOf(_Composite):
    """Triggers when *all* children have triggered.

    The value is the list of child values in construction order.  The
    first child failure fails the composite.
    """

    __slots__ = ()

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(_Composite):
    """Triggers when the *first* child triggers.

    The value is ``(index, value)`` of the winning child; a first-child
    failure fails the composite.
    """

    __slots__ = ()

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            return
        if child.ok:
            self.succeed((index, child.value))
        else:
            self.fail(child.value)

