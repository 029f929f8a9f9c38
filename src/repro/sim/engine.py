"""The discrete-event engine: clock, event heap, process registry."""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, LivelockError, SimulationError
from repro.obs.spans import ObsCollector
from repro.sim.events import Event, Timeout

__all__ = ["Engine", "Handle"]

_new_object = object.__new__


class Handle:
    """A cancellable scheduled callback (returned by :meth:`Engine.schedule`).

    The queues hold ``(time, seq, handle)`` tuples, so ordering is a
    native tuple comparison; ``seq`` is unique, so a handle itself is
    never compared.
    """

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable, args: tuple) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True


class Engine:
    """Deterministic discrete-event scheduler.

    Time is a float in seconds starting at 0.  Callbacks scheduled for
    the same instant run in scheduling order, which (with single-shot
    events and deferred wakeups) makes every simulation replayable.

    Callbacks run in ``(time, seq)`` order from two queues.  A
    zero-delay callback (an event waking its waiters, a process's first
    step) is appended to a FIFO, ``_soon``, instead of the heap: it is
    due now, the clock never moves back (``run`` refuses an ``until``
    in the past) and its ``seq`` is the largest yet, so the FIFO stays
    sorted and costs no heap push or pop.  :meth:`step` takes whichever
    queue head is smaller, which is exactly the order one heap of every
    callback would give (``tests/sim/test_engine_reference.py``).
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        max_sim_time: Optional[float] = None,
        obs=None,
    ) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Handle]] = []
        self._soon: deque[tuple[float, int, Handle]] = deque()
        self._seq = 0
        self._alive_processes: set = set()
        self._failed: list[BaseException] = []
        #: Observability collector (:mod:`repro.obs`).  ``obs`` may be
        #: ``None`` (inert), an :class:`~repro.obs.config.ObsConfig`,
        #: or a ready-made collector; sites guard emission with
        #: ``if engine.obs.enabled:``.
        self.obs = ObsCollector.attach(obs, clock=lambda: self.now)
        #: Progress-watchdog budgets: exceeding either raises
        #: :class:`LivelockError` from :meth:`run` instead of spinning
        #: forever (e.g. a retransmission loop that stops converging).
        self.max_events = max_events
        self.max_sim_time = max_sim_time
        #: Callbacks executed so far (cancelled handles don't count).
        self.events_executed = 0

    # -- scheduling ---------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> Handle:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not 0 <= delay < inf:
            # Also rejects NaN and infinity, which would poison the clock.
            raise SimulationError(
                f"cannot schedule {getattr(fn, '__qualname__', fn)!r} "
                f"with delay={delay}: "
                + ("in the past" if delay < 0 else "not a finite delay")
            )
        self._seq += 1
        # Handle.__init__ spelled out: one Python frame less per callback.
        handle = _new_object(Handle)
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        if delay == 0:
            self._soon.append((self.now, self._seq, handle))
        else:
            heappush(self._heap, (self.now + delay, self._seq, handle))
        return handle

    def call_soon(self, fn: Callable, *args: Any) -> Handle:
        """Run ``fn(*args)`` at the current instant, after the current
        callback completes (deferred, never re-entrant)."""
        return self.schedule(0.0, fn, *args)

    # -- waitable constructors ----------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(delay, value)

    def timer(self, delay: float, value: Any = None) -> Event:
        """An :class:`Event` that succeeds after ``delay`` seconds —
        a Timeout usable inside :class:`AllOf`/:class:`AnyOf`."""
        event = Event(self, name="timer")
        self.schedule(delay, event.succeed, value)
        return event

    # -- processes ----------------------------------------------------
    def process(
        self,
        gen: Generator | Callable[..., Generator],
        *args: Any,
        name: str = "",
        daemon: bool = False,
    ) -> "Process":  # noqa: F821
        """Spawn a process from a generator (or generator function).

        The process starts at the current instant (deferred first step).
        Daemon processes (service loops: DMA engine, progress engines)
        are excluded from deadlock detection and may outlive the run.
        """
        from repro.sim.process import Process

        if callable(gen) and not isinstance(gen, Generator):
            gen = gen(*args)
        elif args:
            raise SimulationError("args are only accepted with a generator function")
        return Process(self, gen, name=name, daemon=daemon)

    def _register(self, process) -> None:
        self._alive_processes.add(process)

    def _unregister(self, process) -> None:
        self._alive_processes.discard(process)

    def _record_failure(self, exc: BaseException) -> None:
        self._failed.append(exc)

    # -- main loop ----------------------------------------------------
    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False if none left."""
        heap, soon = self._heap, self._soon
        while True:
            if soon and not (heap and heap[0] < soon[0]):
                when, _, handle = soon.popleft()
            elif heap:
                when, _, handle = heappop(heap)
            else:
                return False
            if handle.cancelled:
                continue
            if when < self.now - 1e-18:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = when
            handle.fn(*handle.args)
            self.events_executed += 1
            if self._failed:
                raise self._failed[0]
            return True

    def _next_time(self) -> Optional[float]:
        """Time of the next live callback (dropping cancelled queue
        heads), or None when nothing is left."""
        heap, soon = self._heap, self._soon
        while soon and soon[0][2].cancelled:
            soon.popleft()
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if soon:
            return min(soon[0], heap[0])[0] if heap else soon[0][0]
        return heap[0][0] if heap else None

    def _progress_snapshot(self) -> dict[str, float]:
        """Per-process last-progress timestamps (watchdog diagnostics)."""
        return {
            (p.name or repr(p)): p.last_progress for p in self._alive_processes
        }

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        max_sim_time: Optional[float] = None,
    ) -> float:
        """Run until both queues drain (or past ``until``).

        Raises :class:`DeadlockError` if the queues drain while processes
        are still parked on events, and re-raises the first uncaught
        exception from any process.  The progress watchdog —
        ``max_events`` / ``max_sim_time``, defaulting to the budgets
        given at construction — raises :class:`LivelockError` (with
        per-process last-progress timestamps) when a run keeps
        scheduling events without converging, so a diverging retry loop
        fails loudly instead of spinning forever.
        """
        if max_events is None:
            max_events = self.max_events
        if max_sim_time is None:
            max_sim_time = self.max_sim_time
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"run(until={until}) is before the current time {self.now}"
            )
        event_budget = inf if max_events is None else max_events
        time_budget = inf if max_sim_time is None else max_sim_time
        heap, soon = self._heap, self._soon
        step = self.step
        while heap or soon:
            if until is not None:
                # Look past cancelled heads: step() skips them and runs
                # the next live callback, whatever its time.
                when = self._next_time()
                if when is None:
                    break
                if when > until:
                    self.now = until
                    return self.now
            step()
            if self.events_executed > event_budget or self.now > time_budget:
                raise LivelockError(
                    f"event budget of {max_events} exceeded"
                    if self.events_executed > event_budget
                    else f"sim-time budget of {max_sim_time:g}s exceeded",
                    self.events_executed,
                    self.now,
                    self._progress_snapshot(),
                )
        if self._alive_processes:
            blocked = sorted(p.name or repr(p) for p in self._alive_processes)
            raise DeadlockError(blocked)
        return self.now

    def run_processes(
        self,
        gens: Iterable[Generator | Callable[[], Generator]],
        until: Optional[float] = None,
    ) -> list[Any]:
        """Spawn one process per generator, run to completion, return
        their results in order."""
        procs = [self.process(g, name=f"proc-{i}") for i, g in enumerate(gens)]
        self.run(until=until)
        return [p.result for p in procs]
