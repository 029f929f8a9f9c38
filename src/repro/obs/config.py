"""Observability configuration: the ``obs=ObsConfig(...)`` knob.

Passed to :func:`repro.mpi.world.run_mpi` /
:func:`repro.mpi.cluster.run_cluster` (or straight to
:class:`repro.sim.engine.Engine`).  A run without a config pays one
attribute check per instrumentation site and allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """What the run should observe and where the results go.

    spans:
        Record causal :class:`~repro.obs.spans.Span` trees (rendezvous
        handshakes, chunk copies, KNEM commands, DMA descriptors, NIC
        attempts, collective phases).
    metrics:
        Absorb the run's counters (PAPI, regcache, NIC resilience,
        engine stats) into the collector's
        :class:`~repro.obs.metrics.MetricsRegistry` when the run ends.
    max_spans:
        Retention bound.  ``None`` keeps everything; a bound keeps the
        *newest* spans and counts the evictions in
        :attr:`~repro.obs.spans.ObsCollector.dropped_spans` (a dropped
        parent orphans its surviving children — bound generously).
    chrome_path / jsonl_path:
        When set, the run writes a Chrome-trace / Perfetto JSON file
        (resp. a compact JSONL span stream) on completion.
    """

    spans: bool = False
    metrics: bool = True
    max_spans: Optional[int] = None
    chrome_path: Optional[str] = None
    jsonl_path: Optional[str] = None
