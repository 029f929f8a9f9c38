"""Live fleet telemetry: status.json + Prometheus text exposition.

While a coordinator's submissions drain, its queues live only in its
memory, so an operator has no other window into the fleet.  This
module gives the coordinator a *push* surface: every ``interval``
seconds it rewrites two files in its state directory —

* ``status.json`` — an atomic point-in-time document: queue depths
  summed over every submission, every counter, per-trial
  wall-latency quantiles (p50/p95/p99 out of the
  ``wall.trial.seconds`` log2 histogram), and the result-store
  hit/miss/heal counters;
* ``metrics.prom`` — the same registry in Prometheus text exposition
  (``repro_`` prefix, dots sanitized to underscores, histograms as
  cumulative ``le`` buckets with ``_sum``/``_count``), for scrapers
  and for ``promtool``-style tooling.

Both files go through the atomic tmp+fsync+rename writers in
:mod:`repro.bench.store`, so a reader — ``repro-bench campaign report
--fleet``, a dashboard, ``watch cat`` — never sees a torn document no
matter when the coordinator is killed.  The writer itself is
crash-inert: telemetry files are pure output, never read back.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.bench.store import atomic_write_json, atomic_write_text

__all__ = [
    "FleetTelemetry",
    "STATUS_VERSION",
    "prometheus_lines",
    "histogram_summary",
    "load_status",
    "format_status",
]

STATUS_VERSION = 2

#: Quantiles reported for every histogram in ``status.json``.
QUANTILES = (0.5, 0.95, 0.99)


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus (``repro_`` prefix,
    ``[^a-zA-Z0-9_]`` to underscore)."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"repro_{safe}"


def prometheus_lines(metrics) -> list[str]:
    """Render a :class:`~repro.obs.metrics.MetricsRegistry` as
    Prometheus text-exposition lines.

    Counters and gauges are scalars; histograms become cumulative
    ``le``-bucket series (upper bounds are the log2 bucket bounds,
    closed by ``+Inf``) plus ``_sum`` and ``_count`` — the shape
    ``histogram_quantile()`` expects.
    """
    out: list[str] = []
    for kind, inst in metrics.iter_instruments():
        name = _prom_name(inst.name)
        if kind in ("counter", "gauge"):
            out.append(f"# TYPE {name} {kind}")
            out.append(f"{name} {_fmt(inst.value)}")
            continue
        out.append(f"# TYPE {name} histogram")
        cumulative = 0
        for e in sorted(inst.buckets):
            cumulative += inst.buckets[e]
            out.append(f'{name}_bucket{{le="{_fmt(2.0 ** e)}"}} {cumulative}')
        out.append(f'{name}_bucket{{le="+Inf"}} {inst.count}')
        out.append(f"{name}_sum {_fmt(inst.total)}")
        out.append(f"{name}_count {inst.count}")
    return out


def _fmt(value: float) -> str:
    """Shortest faithful rendering (integers lose the ``.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def histogram_summary(hist) -> dict:
    """count/sum/min/max plus p50/p95/p99 for ``status.json``."""
    out = {
        "count": hist.count,
        "sum": hist.total,
        "min": hist.vmin,
        "max": hist.vmax,
    }
    for q in QUANTILES:
        out[f"p{int(q * 100)}"] = hist.quantile(q)
    return out


class FleetTelemetry:
    """The coordinator's periodic status writer.

    Owns no state of its own beyond the rewrite clock: every tick reads
    the live registry, the queues ``queues()`` returns (one per
    submission) and the cache, and rewrites both files, so a missed
    tick costs staleness, never correctness.  ``interval`` bounds the
    write rate (two fsync'd renames per tick) — at the default 0.5 s
    the cost is invisible next to trial execution.
    """

    def __init__(
        self,
        metrics,
        queues: Optional[Callable[[], Iterable]] = None,
        cache=None,
        out_dir: str | Path = ".",
        name: str = "campaign",
        interval: float = 0.5,
        clock=time.time,
    ) -> None:
        self.metrics = metrics
        self.queues = queues
        self.cache = cache
        self.out_dir = Path(out_dir)
        self.name = name
        self.interval = interval
        self.clock = clock
        self.status_path = self.out_dir / "status.json"
        self.prom_path = self.out_dir / "metrics.prom"
        self._last_write: Optional[float] = None
        self.writes = 0

    # ---------------------------------------------------------- gauges
    def _queue_totals(self) -> Optional[dict]:
        """Depths and retry-budget use summed over every queue, or
        ``None`` without a ``queues`` source."""
        if self.queues is None:
            return None
        queues = list(self.queues())
        return {
            "pending": sum(len(q.pending) for q in queues),
            "leased": sum(len(q.leased) for q in queues),
            "done": sum(len(q.done) for q in queues),
            "quarantined": sum(len(q.quarantined) for q in queues),
            "retry_budget_consumed": sum(
                s.fails for q in queues for s in q.states.values()
            ),
        }

    def refresh(self) -> None:
        """Mirror queue depths, retry-budget consumption, and store
        counters into the registry (so one snapshot carries it all)."""
        m = self.metrics
        totals = self._queue_totals()
        if totals is not None:
            for key in ("pending", "leased", "done", "quarantined"):
                m.gauge(f"campaign.queue.{key}").set(totals[key])
            m.gauge("campaign.retry_budget_consumed").set(
                totals["retry_budget_consumed"]
            )
        if self.cache is not None:
            m.gauge("campaign.cache.hits").set(self.cache.hits)
            m.gauge("campaign.cache.misses").set(self.cache.misses)
            m.gauge("campaign.cache.corrupt_healed").set(
                self.cache.corrupt_healed
            )
            served = self.cache.hits + self.cache.misses
            m.gauge("campaign.cache.hit_rate").set(
                self.cache.hits / served if served else 0.0
            )

    # ----------------------------------------------------------- ticks
    def maybe_write(self) -> bool:
        """Rewrite both files if ``interval`` elapsed; returns whether
        a write happened.  The first call always writes (a fleet
        should become observable immediately)."""
        now = self.clock()
        if self._last_write is not None and now - self._last_write < self.interval:
            return False
        self.write(now)
        return True

    def write(self, now: Optional[float] = None) -> None:
        """Unconditional rewrite (the final flush uses this)."""
        now = self.clock() if now is None else now
        self.refresh()
        atomic_write_json(self.status_path, self.status_doc(now))
        atomic_write_text(
            self.prom_path, "\n".join(prometheus_lines(self.metrics)) + "\n"
        )
        self._last_write = now
        self.writes += 1

    def status_doc(self, now: Optional[float] = None) -> dict:
        now = self.clock() if now is None else now
        totals = self._queue_totals()
        snap = self.metrics.snapshot()
        counters = {
            k: v
            for k, v in snap.items()
            if isinstance(v, (int, float)) and ".worker." not in k
        }
        doc = {
            "version": STATUS_VERSION,
            "kind": "fleet-status",
            "name": self.name,
            "updated_unix": now,
            "counters": counters,
        }
        if totals is not None:
            doc["queue"] = {
                k: v for k, v in totals.items() if k != "retry_budget_consumed"
            }
        if self.cache is not None:
            served = self.cache.hits + self.cache.misses
            doc["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "corrupt_healed": self.cache.corrupt_healed,
                "hit_rate": self.cache.hits / served if served else 0.0,
            }
        hists = {}
        for kind, inst in self.metrics.iter_instruments():
            if kind == "histogram":
                hists[inst.name] = histogram_summary(inst)
        if hists:
            doc["histograms"] = hists
        return doc


# ------------------------------------------------------------- reporting
def load_status(state_dir: str | Path) -> Optional[dict]:
    """The last-written ``status.json``, or ``None`` if absent."""
    import json

    path = Path(state_dir) / "status.json"
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def format_status(doc: dict) -> str:
    """Human-readable rendering for ``campaign report --fleet``."""
    lines = [f"fleet {doc.get('name', '?')!r} (status.json v{doc.get('version')})"]
    q = doc.get("queue")
    if q:
        lines.append(
            f"  queue: {q['done']} done | {q['leased']} leased | "
            f"{q['pending']} pending | {q['quarantined']} quarantined"
        )
    c = doc.get("cache")
    if c:
        lines.append(
            f"  store: {c['hits']} hits | {c['misses']} misses | "
            f"{c['corrupt_healed']} corrupt-healed | "
            f"hit rate {c['hit_rate']:.1%}"
        )
    for name, value in sorted(doc.get("counters", {}).items()):
        if name.startswith("campaign."):
            lines.append(f"  {name} = {value:g}")
    for name, h in sorted(doc.get("histograms", {}).items()):
        if not h["count"]:
            continue
        parts = [f"n={h['count']}"]
        for key in ("p50", "p95", "p99"):
            if h.get(key) is not None:
                parts.append(f"{key}={h[key]:.4g}")
        lines.append(f"  {name}: {' '.join(parts)}")
    return "\n".join(lines)
