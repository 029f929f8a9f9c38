"""Sweep sizes, and the curves that ``--figure`` prints and charts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import BenchmarkError
from repro.units import KiB, MiB, fmt_size

__all__ = ["BenchmarkError", "Series", "Sweep", "sweep_sizes"]


def sweep_sizes(
    lo: int = 64 * KiB, hi: int = 4 * MiB, per_octave: int = 2
) -> list[int]:
    """Geometric sweep of message sizes, like the paper's x axes.

    Sizes double each octave; ``per_octave`` sets how many points land
    in each doubling.  ``per_octave=1`` keeps the powers of two only;
    ``per_octave=2`` also places the 1.5x midpoint of every octave
    (64k, 96k, 128k, 192k, ...).  A midpoint is included only while it
    does not exceed ``hi``, so a sweep may legitimately end on one.
    """
    if lo <= 0 or hi < lo or per_octave < 1:
        raise BenchmarkError(f"bad sweep bounds [{lo}, {hi}] x{per_octave}")
    sizes = []
    size = lo
    while size <= hi:
        sizes.append(size)
        if per_octave >= 2:
            mid = size * 3 // 2
            if mid <= hi:
                sizes.append(mid)
        size *= 2
    return sorted(set(sizes))


@dataclass
class Series:
    """One curve of a figure: a labelled list of (x, y) points."""

    label: str
    points: list[tuple[int, float]] = field(default_factory=list)

    def add(self, x: int, y: float) -> None:
        self.points.append((x, y))

    def y_at(self, x: int) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise BenchmarkError(f"{self.label}: no point at {fmt_size(x)}")

    @property
    def xs(self) -> list[int]:
        return [x for x, _ in self.points]

    @property
    def ys(self) -> list[float]:
        return [y for _, y in self.points]


@dataclass
class Sweep:
    """A family of series over the same x values (one paper figure)."""

    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    #: Noise seed(s) the sweep was produced with (None = deterministic
    #: run).  Persisted by the store and the JSON reporter so stored
    #: results say exactly which random streams produced them.
    seeds: Optional[list[int]] = None

    def new_series(self, label: str) -> Series:
        s = Series(label)
        self.series.append(s)
        return s

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise BenchmarkError(f"{self.title}: no series {label!r}")

    @property
    def xs(self) -> list[int]:
        return self.series[0].xs if self.series else []
