"""Benchmark harness: the IMB kernels and NAS skeletons behind the
paper's artifacts, and their renderers.

- Figures 3-6: IMB PingPong sweeps (:mod:`repro.bench.imb`);
- Figure 7: IMB Alltoall aggregated throughput;
- Table 1: NAS Parallel Benchmark execution times (:mod:`repro.bench.nas`);
- Table 2: L2 cache-miss counts;
- Sec. 3.5 thresholds and the 15 paper claims.

Each artifact is a campaign suite (:mod:`repro.campaign.suites`);
``repro-bench --figure 4`` runs one and prints it from its suite
document (:mod:`repro.bench.reporting`, :mod:`repro.bench.charts`).
The ``benchmarks/`` directory wires the suites into pytest-benchmark.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.bench.imb": ("AlltoallResult", "PingPongResult", "imb_alltoall", "imb_pingpong"),
    "repro.bench.harness": ("Series", "Sweep", "sweep_sizes"),
    "repro.bench.reporting": ("format_series_table", "format_table"),
})

__all__ = [
    "PingPongResult",
    "AlltoallResult",
    "imb_pingpong",
    "imb_alltoall",
    "Series",
    "Sweep",
    "sweep_sizes",
    "format_series_table",
    "format_table",
]
