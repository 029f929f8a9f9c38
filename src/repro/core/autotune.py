"""Empirical threshold search (Sec. 3.5).

The paper observed — before deriving the DMAmin formula — that on a
4 MiB-L2 host KNEM should offload to I/OAT above ~1 MiB when the two
processes share a cache, above ~2 MiB when they do not, and that a
6 MiB-L2 host raises both by 50 %.  :func:`find_ioat_crossover`
reproduces that measurement procedure: sweep message sizes, find where
the I/OAT-offloaded pingpong starts beating the kernel-copy pingpong,
and compare against :meth:`TopologySpec.dmamin_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.bench.harness import sweep_sizes
from repro.bench.imb import imb_pingpong
from repro.hw.topology import TopologySpec
from repro.units import KiB, MiB, fmt_size

__all__ = ["CrossoverResult", "find_ioat_crossover", "stable_win"]


@dataclass(frozen=True)
class CrossoverResult:
    """Outcome of one crossover search."""

    topo_name: str
    bindings: tuple[int, int]
    shares_cache: bool
    #: Smallest swept size from which I/OAT wins for good (None: never).
    measured_crossover: Optional[int]
    #: The formula's prediction for this placement.
    predicted_dmamin: int
    sizes: tuple[int, ...]
    knem_mib: tuple[float, ...]
    ioat_mib: tuple[float, ...]

    def describe(self) -> str:
        measured = (
            fmt_size(self.measured_crossover)
            if self.measured_crossover
            else "beyond sweep"
        )
        locality = "shared cache" if self.shares_cache else "no shared cache"
        return (
            f"{self.topo_name} cores {self.bindings} ({locality}): "
            f"I/OAT wins from {measured}; DMAmin predicts "
            f"{fmt_size(self.predicted_dmamin)}"
        )


def stable_win(points) -> Optional[int]:
    """Smallest size from which a challenger wins for good, given
    ``(size, wins)`` pairs in size order; None when the challenger
    loses at the last size."""
    crossover = None
    for size, wins in points:
        if not wins:
            crossover = None
        elif crossover is None:
            crossover = size
    return crossover


def find_ioat_crossover(
    topo: TopologySpec,
    bindings: tuple[int, int] = (0, 1),
    sizes: Optional[Sequence[int]] = None,
    repetitions: int = 5,
    **run,
) -> CrossoverResult:
    """Measure where KNEM+I/OAT overtakes the KNEM kernel copy; every
    pingpong runs with ``run``'s further :func:`imb_pingpong` keywords
    (the watchdog budgets)."""
    if sizes is None:
        sizes = sweep_sizes(256 * KiB, 8 * MiB, per_octave=2)
    knem, ioat = [], []
    for nbytes in sizes:
        for mode, rates in (("knem", knem), ("knem-ioat", ioat)):
            rates.append(imb_pingpong(
                topo, nbytes, mode=mode, bindings=bindings,
                repetitions=repetitions, **run,
            ).throughput_mib)
    crossover = stable_win((s, i > k) for s, k, i in zip(sizes, knem, ioat))

    shares = topo.shares_cache(*bindings)
    sharers = 2 if shares else 1
    return CrossoverResult(
        topo_name=topo.name,
        bindings=tuple(bindings),
        shares_cache=shares,
        measured_crossover=crossover,
        predicted_dmamin=topo.dmamin_bytes(sharers),
        sizes=tuple(sizes),
        knem_mib=tuple(knem),
        ioat_mib=tuple(ioat),
    )
