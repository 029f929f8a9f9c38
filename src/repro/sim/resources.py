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
from math import inf
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, Join

__all__ = ["ProcessorSharing", "FifoLock", "Channel"]


class ProcessorSharing:
    """An egalitarian processor-sharing server.

    ``n`` concurrent jobs each receive ``rate / n`` service.  A job of
    ``work`` units therefore takes ``work / rate`` when alone and
    stretches proportionally under load.  Completion order is exact:
    every arrival and departure settles each job's remaining work and
    re-arms one timer for the shortest.

    Jobs are two parallel lists: remaining work, and what completion
    calls with the current time — the job's own event's ``succeed``, a
    shared :class:`Join`'s ``arrive``, or ``None`` for a detached job
    nobody waits for.  The settle arithmetic is kept operation for
    operation (a virtual-time clock would round completion times
    differently in their last bits); ``tests/sim/test_ps_reference.py``
    checks it exactly against the per-job reference server.
    """

    def __init__(self, engine, rate: float, name: str = "") -> None:
        if rate <= 0:
            raise SimulationError(f"ProcessorSharing rate must be positive: {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.name = name
        self._job_name = f"{name}.job"
        self._remaining: list[float] = []
        self._done: list = []
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

    def request(
        self, work: float, join: Optional[Join] = None, detached: bool = False
    ) -> Optional[Event]:
        """Submit ``work`` units.

        By default the returned event fires at completion.  With
        ``join`` the job counts that latch down instead, and with
        ``detached`` (background traffic) completion notifies nobody;
        both return ``None`` and allocate no event.
        """
        if not 0 <= work < inf:
            raise SimulationError(
                f"{self.name or 'ProcessorSharing'}: "
                + (f"negative work: {work}" if work < 0 else f"work is not finite: {work}")
            )
        if join is not None:
            event, done = None, join.arrive
        elif detached:
            event = done = None
        else:
            event = Event(self.engine, self._job_name)
            done = event.succeed
        engine = self.engine
        now = engine.now
        if work == 0:
            if done is not None:
                done(now)
            return event
        # Settle: serve every job its share since the last settle.  The
        # comprehension equals max(0.0, r - served) for every float r.
        remaining = self._remaining
        if remaining:
            served = (now - self._last_settle) * self.rate / len(remaining)
            if served > 0:
                remaining = self._remaining = [
                    r - served if r > served else 0.0 for r in remaining
                ]
            # A busy server always has its timer armed: move it.
            self._timer.cancelled = True
        self._last_settle = now
        remaining.append(float(work))
        self._done.append(done)
        self._timer = engine.schedule(
            min(remaining) * len(remaining) / self.rate, self._complete
        )
        return event

    def busy(self, seconds: float) -> Event:
        """Alias for cores, where work is expressed in CPU-seconds."""
        return self.request(seconds)

    # -- internals ----------------------------------------------------
    def _complete(self) -> None:
        # Settle every job as request() does, with the same float
        # operations.
        now = self.engine.now
        remaining = self._remaining
        served = (now - self._last_settle) * self.rate / len(remaining)
        if served > 0:
            remaining = self._remaining = [
                r - served if r > served else 0.0 for r in remaining
            ]
        self._last_settle = now
        eps = self._eps
        done = self._done
        # The shortest job is done: within eps, or by construction when
        # float drift leaves it just above.  Usually it is the only one.
        shortest = min(remaining)
        i = remaining.index(shortest)
        del remaining[i]
        finished = [done.pop(i)]
        if shortest <= eps and remaining and min(remaining) <= eps:
            # Several jobs are done: all of them, in arrival order.
            remaining.insert(i, shortest)
            done.insert(i, finished[0])
            finished = [d for r, d in zip(remaining, done) if r <= eps]
            self._done = [d for r, d in zip(remaining, done) if r > eps]
            self._remaining = [r for r in remaining if r > eps]
        for d in finished:
            if d is not None:
                d(now)
        # Completion callbacks only schedule (waiters wake deferred), so
        # no job arrived meanwhile: re-arm for the new shortest job.
        remaining = self._remaining
        if remaining:
            delay = min(remaining) * len(remaining) / self.rate
            self._timer = self.engine.schedule(delay, self._complete)
        else:
            self._timer = None


class FifoLock:
    """A strict-FIFO mutex.

    ``yield lock.acquire()`` then ``lock.release()``.  Used for the
    single I/OAT channel submission port and pipe-end serialization.
    """

    def __init__(self, engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._acquire_name = f"{name}.acquire"
        self._locked = False
        self._waiters: deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        event = Event(self.engine, self._acquire_name)
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
        self._get_name = f"{name}.get"
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
        event = Event(self.engine, self._get_name)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek(self) -> Optional[Any]:
        return self._items[0] if self._items else None
