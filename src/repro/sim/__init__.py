"""Discrete-event simulation engine.

A tiny, deterministic, SimPy-flavoured engine.  Simulated activities are
written as generator functions; they ``yield`` *waitables* and are
resumed when the waitable fires:

- a ``float``/``int`` or :class:`Timeout` — sleep for simulated seconds,
- an :class:`Event` — park until someone calls :meth:`Event.succeed`,
- another generator — run it as a subroutine (trampolined call),
- a :class:`Process` — join (wait for completion, receive return value),
- :class:`AllOf` / :class:`AnyOf` — composite waits; :class:`Join` — a
  countdown latch for parts that only need joining.

The engine is single-threaded and deterministic: events at equal
timestamps fire in scheduling order.  A drained event queue with parked
processes raises :class:`repro.errors.DeadlockError`, which turns MPI
protocol bugs into crisp test failures instead of hangs.
"""

from repro.sim.engine import Engine, Handle
from repro.sim.events import AllOf, AnyOf, Event, Join, Timeout
from repro.sim.noise import NoiseModel
from repro.sim.process import Process
from repro.sim.resources import Channel, FifoLock, ProcessorSharing

__all__ = [
    "Engine",
    "Handle",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Join",
    "Process",
    "ProcessorSharing",
    "FifoLock",
    "Channel",
    "NoiseModel",
]
