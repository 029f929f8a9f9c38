"""Benchmark harness: IMB kernels, NAS skeletons, figure/table generators.

Every evaluation artifact of the paper has a generator here:

- Figures 3-6: IMB PingPong sweeps (:mod:`repro.bench.figures`);
- Figure 7: IMB Alltoall aggregated throughput;
- Table 1: NAS Parallel Benchmark execution times (:mod:`repro.bench.nas`);
- Table 2: L2 cache-miss counts;
- Sec. 3.5 thresholds and the ablation sweeps.

``repro-bench --figure 4`` regenerates any of them from the
command line; the ``benchmarks/`` directory wires them into
pytest-benchmark.
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
