"""The unified metrics registry: counters, gauges, log2 histograms.

One namespace for every number the stack already maintains — per-core
:class:`~repro.hw.counters.Papi` events, registration-cache hit/miss
stats, NIC resilience counters, fault-injection counts, engine event
totals — so stored benchmark JSON and ad-hoc analysis read a single
``MetricsRegistry.snapshot()`` instead of spelunking five objects.

Absorption is pull-based: :meth:`MetricsRegistry.absorb_world` reads
the authoritative sources once, at the end of a run.  The hot paths
keep their existing plain-integer counters; nothing in the simulation
pays for the registry until snapshot time.  ``BYTES_COPIED`` /
``DMA_BYTES`` (and every other PAPI event) therefore match the
:class:`~repro.hw.counters.Papi` readings *exactly* — they are the
same numbers, summed across cores and machines.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.errors import SimulationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise SimulationError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def set(self, value: float) -> None:
        """Absorb an externally-maintained total (replaces the value)."""
        self.value = value


class Gauge:
    """A point-in-time value (may go up or down)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Distribution with fixed log2 size buckets.

    An observation ``v`` lands in the bucket whose upper bound is the
    smallest power of two >= ``v`` (bucket key = that exponent).
    Works for byte counts and for sub-second durations alike (negative
    exponents for values < 1).
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.buckets: dict[int, int] = {}

    @staticmethod
    def bucket_of(value: float) -> int:
        """Exponent ``e`` such that ``2**(e-1) < value <= 2**e``."""
        if value <= 0:
            return 0
        return math.ceil(math.log2(value)) if value > 0 else 0

    def observe(self, value: float) -> None:
        if value < 0:
            raise SimulationError(f"histogram {self.name}: negative value {value}")
        self.count += 1
        self.total += value
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)
        e = self.bucket_of(value)
        self.buckets[e] = self.buckets.get(e, 0) + 1

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "buckets": {f"le_2^{e}": n for e, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------ instruments
    def counter(self, name: str) -> Counter:
        self._check_name(name, self._gauges, self._histograms)
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        self._check_name(name, self._counters, self._histograms)
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        self._check_name(name, self._counters, self._gauges)
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    @staticmethod
    def _check_name(name: str, *others: dict) -> None:
        for other in others:
            if name in other:
                raise SimulationError(
                    f"metric {name!r} already registered with a different type"
                )

    # -------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """Every instrument's current value, sorted by name.

        Counters and gauges render as plain numbers; histograms as
        ``{count, sum, min, max, buckets}`` dicts.
        """
        out: dict = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].value
        for name in sorted(self._histograms):
            out[name] = self._histograms[name].snapshot()
        return out

    # ------------------------------------------------------ absorption
    def absorb_world(self, world) -> "MetricsRegistry":
        """Pull the authoritative counters of a finished run.

        ``world`` is an :class:`~repro.mpi.world.MpiWorld` (or
        :class:`~repro.mpi.cluster.ClusterWorld`; duck-typed).  Safe to
        call repeatedly — absorbed values replace, never accumulate.
        Returns self for chaining.
        """
        from repro.hw.counters import EVENTS

        cluster = getattr(world, "cluster", None)
        machines = list(cluster.machines) if cluster is not None else [world.machine]

        # PAPI: the exact per-event totals, summed over cores, then
        # machines.
        per_machine = [m.papi.totals() for m in machines]
        for event in EVENTS:
            self.counter(event).set(sum(t[event] for t in per_machine))

        engine = world.engine
        self.counter("engine.events_executed").set(engine.events_executed)
        self.gauge("sim.elapsed_seconds").set(engine.now)

        # I/OAT engines.
        self.counter("dma.engine_bytes").set(
            sum(m.dma.bytes_copied for m in machines)
        )
        self.counter("dma.descriptors").set(
            sum(m.dma.descriptors_processed for m in machines)
        )

        # DSA-class memory-operation engines (modern presets only — the
        # guard keeps legacy snapshots free of the keys, so seeded
        # legacy runs stay byte-identical).
        dsas = [m.dsa for m in machines if getattr(m, "dsa", None) is not None]
        if dsas:
            self.counter("dsa.engine_bytes").set(
                sum(d.bytes_copied for d in dsas)
            )
            self.counter("dsa.descriptors").set(
                sum(d.descriptors_processed for d in dsas)
            )
            self.counter("dsa.batches").set(
                sum(d.batches_submitted for d in dsas)
            )

        # KNEM devices and their (optional) registration caches.
        knems = list(getattr(world, "knems", None) or [world.knem])
        self.counter("knem.copies_completed").set(
            sum(k.copies_completed for k in knems)
        )
        regcaches = [k.reg_cache for k in knems if k.reg_cache is not None]

        # Fabric: NICs, their pin-down caches, fault injections.
        fabric = getattr(cluster, "fabric", None)
        nics = list(getattr(fabric, "nics", []))
        regcaches += [n.regcache for n in nics]
        if nics:
            for attr in (
                "bytes_tx",
                "bytes_rx",
                "requests_tx",
                "retransmits",
                "rx_duplicates",
                "rx_corrupt_discards",
                "rx_incomplete_discards",
                "retries_exhausted",
            ):
                self.counter(f"nic.{attr}").set(sum(getattr(n, attr) for n in nics))
            self.gauge("nic.backoff_seconds").set(
                sum(n.backoff_seconds for n in nics)
            )
        faults = getattr(fabric, "faults", None)
        if faults is not None:
            for key, value in faults.counters().items():
                self.counter(f"faults.{key}").set(value)

        if regcaches:
            self._absorb_regcaches(regcaches)

        # Nemesis endpoints and LMT concurrency.
        self.counter("mpi.eager_received").set(
            sum(ep.eager_received for ep in world.endpoints)
        )
        self.counter("mpi.rndv_received").set(
            sum(ep.rndv_received for ep in world.endpoints)
        )
        self.gauge("mpi.max_concurrent_lmts").set(world.max_concurrent_lmts)
        return self

    def _absorb_regcaches(self, caches: Iterable) -> None:
        caches = list(caches)
        hits = sum(c.hits for c in caches)
        misses = sum(c.misses for c in caches)
        self.counter("regcache.hits").set(hits)
        self.counter("regcache.misses").set(misses)
        self.counter("regcache.evictions").set(sum(c.evictions for c in caches))
        # Exactness invariant: bytes_pinned is PAGE_SIZE times the page
        # counts the callers charged — intranode (KNEM cache armed) it
        # must equal PAGES_PINNED * PAGE_SIZE from the PAPI readings.
        self.counter("regcache.bytes_pinned").set(
            sum(c.bytes_pinned for c in caches)
        )
        self.gauge("regcache.entries").set(sum(c.entries for c in caches))
        self.gauge("regcache.hit_rate").set(
            hits / (hits + misses) if hits + misses else 0.0
        )

    def absorb_spans(self, spans) -> "MetricsRegistry":
        """Feed span durations/sizes into per-kind histograms."""
        from repro.obs.phases import WORK_KINDS

        for span in spans:
            if span.kind not in WORK_KINDS or span.end is None:
                continue
            self.histogram(f"span.{span.kind}.seconds").observe(
                span.end - span.start
            )
            nbytes = span.attrs.get("nbytes")
            if nbytes:
                self.histogram(f"span.{span.kind}.nbytes").observe(nbytes)
        return self
