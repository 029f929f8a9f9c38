"""Pure-heap engine: the reference order for ``Engine``.

This is the scheduler as it stood before same-instant callbacks got a
FIFO of their own: every callback, zero delay or not, is pushed on one
heap of ``(time, seq, handle)`` and popped in that order.
``tests/sim/test_engine_reference.py`` checks that ``Engine`` runs the
same callbacks at the same ``now``.
"""

from heapq import heappop, heappush
from math import inf

from repro.errors import LivelockError, SimulationError
from repro.sim.engine import Engine, Handle


class ReferenceEngine(Engine):
    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        handle = Handle(fn, args)
        heappush(self._heap, (self.now + delay, self._seq, handle))
        return handle

    def step(self):
        heap = self._heap
        while heap:
            when, _, handle = heappop(heap)
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
        return False

    def run(self, until=None, max_events=None, max_sim_time=None):
        if max_events is None:
            max_events = self.max_events
        if max_sim_time is None:
            max_sim_time = self.max_sim_time
        event_budget = inf if max_events is None else max_events
        time_budget = inf if max_sim_time is None else max_sim_time
        heap = self._heap
        while heap:
            if until is not None:
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                if not heap:
                    break
                if heap[0][0] > until:
                    self.now = until
                    return self.now
            self.step()
            if self.events_executed > event_budget or self.now > time_budget:
                raise LivelockError(
                    "budget exceeded", self.events_executed, self.now,
                    self._progress_snapshot(),
                )
        return self.now
