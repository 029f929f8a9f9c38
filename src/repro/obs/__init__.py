"""repro.obs — causal spans, unified metrics, and trace export.

The observability layer for the whole stack.  Four pieces:

* :mod:`repro.obs.spans` — :class:`Span` trees over sim-time, owned by
  an :class:`ObsCollector` attached to every engine as ``engine.obs``;
* :mod:`repro.obs.metrics` — one :class:`MetricsRegistry` absorbing
  PAPI, regcache, NIC-resilience, fault, and engine counters;
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON and JSONL
  exporters plus the CI schema validator;
* :mod:`repro.obs.phases` — per-phase (copy/syscall/pin/dma/wire)
  sim-time attribution for benchmark JSON.

Enable with ``run_mpi(..., obs=ObsConfig(spans=True))`` or the
``repro.bench.cli trace`` subcommand.
"""

from repro import _lazy_exports
from repro.obs.config import ObsConfig
from repro.obs.metrics import (
    WALL_PREFIX,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.phases import STRUCTURAL_KINDS, WORK_KINDS, phase_breakdown
from repro.obs.spans import ObsCollector, Span, SpanContext

# Every engine loads the collector; only trace writers need the exporters.
_lazy_exports(__name__, {
    "repro.obs.export": (
        "chrome_trace",
        "jsonl_lines",
        "validate_chrome_trace",
        "write_chrome_trace",
        "write_jsonl",
    ),
})

__all__ = [
    "ObsConfig",
    "ObsCollector",
    "Span",
    "SpanContext",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "WALL_PREFIX",
    "WORK_KINDS",
    "STRUCTURAL_KINDS",
    "phase_breakdown",
    "chrome_trace",
    "jsonl_lines",
    "write_chrome_trace",
    "write_jsonl",
    "validate_chrome_trace",
]
