"""Shared resources: processor-sharing servers, locks, channels.

The central abstraction is :class:`ProcessorSharing`, used for two
hardware resources in this reproduction:

- a **CPU core** (rate = 1.0 second of work per second): when a KNEM
  kernel thread copies on the same core as the user process, both jobs
  stretch — the competition effect of Sec. 3.4 / Fig. 6 of the paper;
- the **memory bus** (rate = bytes per second): concurrent streams of
  DRAM traffic (eight Alltoall ranks, or a DMA engine plus CPU copies)
  share bandwidth, which moves the I/OAT crossover left — the Sec. 4.4
  observation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

__all__ = ["ProcessorSharing", "FifoLock", "Channel"]


class ProcessorSharing:
    """An egalitarian processor-sharing server.

    ``n`` concurrent jobs each receive ``rate / n`` service.  A job of
    ``work`` units therefore takes ``work / rate`` when alone and
    stretches proportionally under load.  Completion order is exact:
    every arrival and departure settles each job's remaining work and
    re-arms one timer for the shortest.

    Jobs are two parallel lists, remaining work and completion events.
    The settle arithmetic is kept operation for operation (a
    virtual-time clock would round completion times differently in
    their last bits); ``tests/sim/test_ps_reference.py`` checks it
    exactly against the per-job reference server.
    """

    def __init__(self, engine, rate: float, name: str = "") -> None:
        if rate <= 0:
            raise SimulationError(f"ProcessorSharing rate must be positive: {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.name = name
        self._job_name = f"{name}.job"
        self._remaining: list[float] = []
        self._events: list[Event] = []
        self._last_settle = engine.now
        self._timer = None
        # A nanosecond of full-rate service: the float tolerance for
        # declaring a job finished.
        self._eps = 1e-9 * self.rate

    # -- public API ---------------------------------------------------
    @property
    def load(self) -> int:
        """Number of jobs currently in service."""
        return len(self._remaining)

    def request(self, work: float) -> Event:
        """Submit ``work`` units; the returned event fires at completion."""
        if work < 0:
            raise SimulationError(f"negative work: {work}")
        event = Event(self.engine, self._job_name)
        if work == 0:
            event.succeed(self.engine.now)
            return event
        self._settle()
        self._remaining.append(float(work))
        self._events.append(event)
        self._reschedule()
        return event

    def busy(self, seconds: float) -> Event:
        """Alias for cores, where work is expressed in CPU-seconds."""
        return self.request(seconds)

    # -- internals ----------------------------------------------------
    def _settle(self) -> None:
        now = self.engine.now
        remaining = self._remaining
        if remaining:
            served = (now - self._last_settle) * self.rate / len(remaining)
            if served > 0:
                # Equal to max(0.0, r - served) for every float r.
                self._remaining = [
                    r - served if r > served else 0.0 for r in remaining
                ]
        self._last_settle = now

    def _reschedule(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        remaining = self._remaining
        if not remaining:
            return
        delay = min(remaining) * len(remaining) / self.rate
        self._timer = self.engine.schedule(delay, self._complete)

    def _complete(self) -> None:
        self._timer = None
        self._settle()
        eps = self._eps
        remaining, events = self._remaining, self._events
        kept_remaining, kept_events, finished = [], [], []
        for r, event in zip(remaining, events):
            if r > eps:
                kept_remaining.append(r)
                kept_events.append(event)
            else:
                finished.append(event)
        if finished:
            self._remaining, self._events = kept_remaining, kept_events
        else:
            # Float drift: the min job is by construction done now.
            i = remaining.index(min(remaining))
            del remaining[i]
            finished = [events.pop(i)]
        now = self.engine.now
        for event in finished:
            event.succeed(now)
        self._reschedule()


class FifoLock:
    """A strict-FIFO mutex.

    ``yield lock.acquire()`` then ``lock.release()``.  Used for the
    single I/OAT channel submission port and pipe-end serialization.
    """

    def __init__(self, engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._locked = False
        self._waiters: deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        event = self.engine.event(name=f"{self.name}.acquire")
        if not self._locked:
            self._locked = True
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked {self.name or 'FifoLock'}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False


class Channel:
    """An unbounded FIFO message channel between processes.

    ``put`` never blocks; ``yield channel.get()`` delivers items in
    order, waking getters FIFO.  This is the transport for the simulated
    Nemesis packet queues.
    """

    def __init__(self, engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.engine.event(name=f"{self.name}.get")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek(self) -> Optional[Any]:
        return self._items[0] if self._items else None
