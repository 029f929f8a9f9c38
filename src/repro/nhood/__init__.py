"""Node-aware sparse neighborhood collectives (ROADMAP item 3).

Layers: graph topology (:mod:`repro.nhood.graph`), seeded pattern
generators (:mod:`repro.nhood.patterns`) and pluggable exchange
strategies (:mod:`repro.nhood.strategy`).  The ``nhood`` campaign
suite (:mod:`repro.campaign.suites`) sweeps pattern x strategy x LMT x
nnodes into ``BENCH_nhood.json``.
"""

from repro.nhood.graph import CommGraph, DistGraph, NhoodError, dist_graph_adjacent
from repro.nhood.patterns import PATTERNS, build_pattern, irregular, stencil2d, stencil3d
from repro.nhood.strategy import STRATEGIES, neighbor_alltoallv, node_plan

__all__ = [
    "CommGraph",
    "DistGraph",
    "NhoodError",
    "dist_graph_adjacent",
    "PATTERNS",
    "build_pattern",
    "stencil2d",
    "stencil3d",
    "irregular",
    "STRATEGIES",
    "neighbor_alltoallv",
    "node_plan",
]
