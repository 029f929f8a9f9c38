"""Trampolined generator processes.

A process wraps a stack of generators.  Yielding a generator pushes it
(a subroutine call); ``StopIteration.value`` flows back as the yield's
result.  This lets simulation code call helpers naturally::

    def sender(comm):
        yield comm.Send(buf, dest=1)       # Send returns a generator
        value = yield comm.Recv(buf2, source=1)
"""

from __future__ import annotations

from functools import partial
from types import GeneratorType
from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, Timeout

__all__ = ["Process"]


class Process:
    """A running simulated activity.

    Attributes
    ----------
    done:
        An :class:`Event` that triggers with the process's return value
        (or fails with its uncaught exception).  ``yield``-ing the
        process itself waits on this event.
    result:
        The return value once finished (None before).
    """

    __slots__ = (
        "engine",
        "name",
        "_stack",
        "done",
        "finished",
        "result",
        "error",
        "_wake_token",
        "_pending_timer",
        "daemon",
        "last_progress",
    )

    def __init__(
        self, engine, gen: Generator, name: str = "", daemon: bool = False
    ) -> None:
        if not isinstance(gen, GeneratorType):
            raise SimulationError(f"Process needs a generator, got {type(gen)!r}")
        self.engine = engine
        self.daemon = daemon
        self.name = name or getattr(gen, "__name__", "process")
        self._stack: list[Generator] = [gen]
        self.done: Event = engine.event(name=f"{self.name}.done")
        self.finished = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # Incremented every time the process parks; wakeup callbacks
        # capture the current token and are ignored if stale (e.g. a
        # timeout firing after the process was interrupted).
        self._wake_token = 0
        self._pending_timer = None
        #: Simulated time of the last step — the livelock watchdog
        #: reports these so the stalest process identifies the hang.
        self.last_progress = engine.now
        if not daemon:
            engine._register(self)
        token = self._wake_token
        engine.call_soon(self._resume, token, None, None)

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"

    # -- lifecycle ----------------------------------------------------
    def _finish(self, value: Any) -> None:
        self.finished = True
        self.result = value
        self.engine._unregister(self)
        self.done.succeed(value)

    def _fail(self, exc: BaseException) -> None:
        self.finished = True
        self.error = exc
        self.engine._unregister(self)
        if self.done._waiters:
            self.done.fail(exc)
        else:
            # Nobody is joining this process: surface the error through
            # the engine so the simulation stops instead of limping on.
            self.done.fail(exc)
            self.engine._record_failure(exc)

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Throw ``exc`` (default :class:`SimulationError`) into the
        process at its current yield point."""
        if self.finished:
            return
        if exc is None:
            exc = SimulationError(f"{self.name} interrupted")
        self._wake_token += 1  # invalidate whatever wakeup was pending
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        self._step(None, exc)

    # -- stepping -----------------------------------------------------
    def _resume(
        self, token: int, send_value: Any, throw_exc: Optional[BaseException]
    ) -> None:
        """Wakeup entry point; drops stale callbacks."""
        if self.finished or token != self._wake_token:
            return
        self._pending_timer = None
        self._step(send_value, throw_exc)

    def _on_event_with_token(self, token: int, event: Event) -> None:
        """Event wakeup entry point (bound with ``partial``); drops
        stale callbacks like :meth:`_resume`."""
        if self.finished or token != self._wake_token:
            return
        self._pending_timer = None
        if event.ok:
            self._step(event.value, None)
        else:
            self._step(None, event.value)

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        self.last_progress = self.engine.now
        while True:
            frame = self._stack[-1]
            try:
                if throw_exc is not None:
                    exc, throw_exc = throw_exc, None
                    item = frame.throw(exc)
                else:
                    item = frame.send(send_value)
            except StopIteration as stop:
                self._stack.pop()
                if not self._stack:
                    self._finish(stop.value)
                    return
                send_value = stop.value
                continue
            except BaseException as exc:  # noqa: BLE001 - propagate up the stack
                self._stack.pop()
                if not self._stack:
                    self._fail(exc)
                    return
                throw_exc = exc
                send_value = None
                continue

            # Dispatch on what was yielded.
            if isinstance(item, GeneratorType):
                self._stack.append(item)
                send_value = None
                continue
            if isinstance(item, Process):
                item = item.done
            if isinstance(item, Event):
                self._wake_token += 1
                # Event.add_callback, spelled out for the hot path.
                callback = partial(self._on_event_with_token, self._wake_token)
                if item.triggered:
                    item.engine.schedule(0.0, callback, item)
                else:
                    item._waiters.append(callback)
                return
            if isinstance(item, (int, float)):
                item = Timeout(item)
            if isinstance(item, Timeout):
                self._wake_token += 1
                self._pending_timer = self.engine.schedule(
                    item.delay, self._resume, self._wake_token, item.value, None
                )
                return
            throw_exc = SimulationError(
                f"{self.name} yielded unsupported value {item!r}"
            )
            send_value = None
