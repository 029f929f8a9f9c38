"""Exception hierarchy for the repro package.

Every error raised by the simulator derives from :class:`ReproError`,
so applications can catch simulation problems separately from ordinary
Python errors.  The sub-hierarchy mirrors the package layout.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "LivelockError",
    "HardwareError",
    "NetworkError",
    "RegistrationError",
    "RetryExhaustedError",
    "KernelError",
    "BadAddressError",
    "PipeError",
    "KnemError",
    "CookieError",
    "MpiError",
    "TruncationError",
    "DatatypeError",
    "RankError",
    "LmtError",
    "SchedError",
    "BenchmarkError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Errors from the discrete-event engine (misuse, bad yields...)."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    Raised by :meth:`repro.sim.engine.Engine.run` and carries the names
    of the blocked processes to make protocol bugs diagnosable.
    """

    def __init__(self, blocked: list[str]):
        self.blocked = list(blocked)
        super().__init__(
            "simulation deadlocked; blocked processes: " + ", ".join(blocked)
        )


class LivelockError(SimulationError):
    """The progress watchdog tripped: the simulation kept scheduling
    events without converging (event-count or sim-time budget exceeded).

    Carries the budget that tripped and per-process last-progress
    timestamps so a diverging retry loop is diagnosable: the stalest
    process is almost always the one whose completion never arrives.
    """

    def __init__(
        self,
        reason: str,
        events: int,
        now: float,
        progress: dict[str, float] | None = None,
    ):
        self.reason = reason
        self.events = events
        self.now = now
        self.progress = dict(progress or {})
        stalest = sorted(self.progress.items(), key=lambda kv: kv[1])
        detail = ", ".join(f"{name}@{t:.6g}s" for name, t in stalest[:8])
        super().__init__(
            f"simulation livelocked ({reason}) after {events} events at "
            f"t={now:.6g}s; last progress: {detail or 'no live processes'}"
        )


class HardwareError(ReproError):
    """Errors in the hardware model (bad topology, cache misuse...)."""


class NetworkError(ReproError):
    """Errors in the simulated internode fabric."""


class RegistrationError(NetworkError):
    """NIC memory registration (pin + translation entry) failed."""


class RetryExhaustedError(NetworkError):
    """A reliable NIC request ran out of its retransmission budget."""


class KernelError(ReproError):
    """Errors from the simulated OS kernel."""


class BadAddressError(KernelError):
    """An address range fell outside any mapped segment (simulated EFAULT)."""


class PipeError(KernelError):
    """Misuse of the simulated pipe (simulated EBADF/EPIPE)."""


class KnemError(KernelError):
    """Errors from the simulated KNEM pseudo-device."""


class CookieError(KnemError):
    """Unknown, reused or expired KNEM cookie (simulated EINVAL)."""


class MpiError(ReproError):
    """MPI-level semantic errors."""


class TruncationError(MpiError):
    """Receive buffer smaller than the matched incoming message."""


class DatatypeError(MpiError):
    """Invalid datatype construction or buffer argument."""


class RankError(MpiError):
    """Rank out of range for the communicator."""


class LmtError(MpiError):
    """Errors in a Large Message Transfer backend."""


class SchedError(ReproError):
    """Errors from the multi-tenant job scheduler (bad job specs,
    unplaceable jobs, drained queues)."""


class BenchmarkError(ReproError):
    """Errors in the benchmark harness (bad parameters, empty sweeps)."""

