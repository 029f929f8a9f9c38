"""Seeded run-to-run variability.

The paper's Table 1 notes that "NAS results slightly vary between
successive runs" — several rows show ±1-3 % deltas that are noise, not
effects.  The simulator is deterministic by default, which makes its
insensitive rows sit at exactly 0 %.  A :class:`NoiseModel` reintroduces
controlled variability: multiplicative lognormal jitter on compute
phases and scheduling latencies, drawn from a seeded generator so any
"noisy" experiment is still exactly reproducible.  The generator is
:class:`repro.sim.rng.Pcg64Stream`, which draws numpy's
``default_rng(seed)`` stream bit for bit without importing numpy.

The same model also covers the NIC's wire and service times: a fabric
built with ``noise`` (see :class:`repro.net.fabric.Fabric`, or
``run_cluster(..., noise=...)``) jitters per-descriptor serialization,
completion delivery, and the retransmission timeouts — so with fault
injection armed, retry timers across nodes don't fire in lockstep.

Off by default everywhere; enable per run via ``run_mpi(...,
noise=NoiseModel(seed=1, sigma=0.02))``.
"""

from __future__ import annotations

import numbers

from repro.errors import SimulationError

__all__ = ["NoiseModel"]


class NoiseModel:
    """Multiplicative lognormal jitter with a fixed seed."""

    #: Default jitter width when a bare seed is coerced into a model.
    DEFAULT_SIGMA = 0.02

    def __init__(self, seed: int = 0, sigma: float = 0.02) -> None:
        if sigma < 0 or sigma > 0.5:
            raise SimulationError(f"noise sigma out of range [0, 0.5]: {sigma}")
        self.sigma = sigma
        self.reseed(seed)

    def factor(self) -> float:
        """One jitter multiplier, centred on 1.0."""
        if self.sigma == 0:
            return 1.0
        self.samples_drawn += 1
        return self._rng.lognormal(self.sigma)

    def jitter(self, duration: float) -> float:
        """Apply jitter to a duration."""
        return duration * self.factor()

    def reseed(self, seed: int) -> None:
        """Restart the stream (a fresh 'run' of the same experiment).

        ``seed`` must be a non-negative integer (numpy integers pass,
        ``bool`` does not), else :class:`SimulationError`.
        """
        # Imported here: every run loads this module, few draw noise.
        from repro.sim.rng import Pcg64Stream, check_seed

        self._rng = Pcg64Stream(check_seed("NoiseModel.seed", seed))
        self.seed = seed
        self.samples_drawn = 0

    @classmethod
    def coerce(
        cls, noise: "NoiseModel | int | None", sigma: float | None = None
    ) -> "NoiseModel | None":
        """Normalize a run/trial config's noise field.

        ``None`` stays off, an existing model passes through unchanged,
        and a bare integer is an *explicit seed* for a model with
        ``sigma`` (default :data:`DEFAULT_SIGMA`) — so experiment specs
        can carry plain JSON seeds instead of constructed objects.
        """
        if noise is None or isinstance(noise, cls):
            return noise
        if isinstance(noise, numbers.Integral) and not isinstance(noise, bool):
            return cls(
                seed=int(noise),
                sigma=cls.DEFAULT_SIGMA if sigma is None else sigma,
            )
        raise SimulationError(
            f"noise must be None, a seed int, or a NoiseModel, got {noise!r}"
        )
