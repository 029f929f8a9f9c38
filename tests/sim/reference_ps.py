"""Per-job processor sharing: the reference for ``ProcessorSharing``.

This is the server as it stood before its jobs became parallel lists:
one ``_Job`` object per request and ``max(0.0, r - served)`` per job at
every settle.  The list-based server must reproduce its completion
times exactly (``==``, not approximately), which
``tests/sim/test_ps_reference.py`` checks on random arrivals.
"""

from repro.errors import SimulationError


class _Job:
    __slots__ = ("remaining", "event")

    def __init__(self, remaining, event):
        self.remaining = remaining
        self.event = event


class ReferenceProcessorSharing:
    def __init__(self, engine, rate, name=""):
        if rate <= 0:
            raise SimulationError(f"ProcessorSharing rate must be positive: {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.name = name
        self._jobs = []
        self._last_settle = engine.now
        self._timer = None
        self._eps = 1e-9 * self.rate

    @property
    def load(self):
        return len(self._jobs)

    def request(self, work):
        if work < 0:
            raise SimulationError(f"negative work: {work}")
        event = self.engine.event(name=f"{self.name}.job")
        if work == 0:
            event.succeed(self.engine.now)
            return event
        self._settle()
        self._jobs.append(_Job(float(work), event))
        self._reschedule()
        return event

    def _settle(self):
        now = self.engine.now
        if self._jobs:
            served = (now - self._last_settle) * self.rate / len(self._jobs)
            if served > 0:
                for job in self._jobs:
                    job.remaining = max(0.0, job.remaining - served)
        self._last_settle = now

    def _reschedule(self):
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._jobs:
            return
        shortest = min(job.remaining for job in self._jobs)
        delay = shortest * len(self._jobs) / self.rate
        self._timer = self.engine.schedule(delay, self._complete)

    def _complete(self):
        self._timer = None
        self._settle()
        finished = [j for j in self._jobs if j.remaining <= self._eps]
        if not finished:
            finished = [min(self._jobs, key=lambda j: j.remaining)]
        self._jobs = [j for j in self._jobs if j not in finished]
        for job in finished:
            job.event.succeed(self.engine.now)
        self._reschedule()
