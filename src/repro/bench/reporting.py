"""Rendering of benchmark results: ASCII tables, CSV, and JSON.

The JSON form carries a ``topology`` block describing the simulated
host(s) — single machine or cluster — so stored results remain
interpretable without the producing script."""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional, Sequence

from repro.bench.harness import Sweep
from repro.units import fmt_size

__all__ = [
    "format_series_table",
    "format_table",
    "format_csv",
    "format_json",
    "topology_block",
    "resilience_block",
    "obs_block",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_series_table(sweep: Sweep, unit: str = "") -> str:
    """Render a figure's curves as one row per x value."""
    headers = ["size"] + [s.label for s in sweep.series]
    rows = []
    for x in sweep.xs:
        row: list[object] = [fmt_size(x)]
        for s in sweep.series:
            row.append(s.y_at(x))
        rows.append(row)
    title = sweep.title
    if unit or sweep.ylabel:
        title += f"  [{unit or sweep.ylabel}]"
    return format_table(headers, rows, title=title)


def format_csv(sweep: Sweep) -> str:
    lines = ["size," + ",".join(s.label for s in sweep.series)]
    for x in sweep.xs:
        lines.append(
            f"{x}," + ",".join(f"{s.y_at(x):.3f}" for s in sweep.series)
        )
    return "\n".join(lines)


def topology_block(spec, bindings: Optional[Sequence[int]] = None) -> dict:
    """Describe the simulated host(s) for embedding in stored results.

    Accepts either a single-machine :class:`~repro.hw.topology.
    TopologySpec` or a multi-node :class:`~repro.net.fabric.ClusterSpec`
    (duck-typed on the ``node`` attribute, so this module never imports
    :mod:`repro.net`).

    When ``bindings`` (rank -> core) is given, the block also carries
    the :func:`repro.mpi.affinity.placement_summary` locality statistics
    — how many rank pairs share a cache / a socket and the per-cache
    process counts feeding the DMAmin formula — so a stored result says
    not just *what* machine it ran on but *where on it* the ranks sat."""
    node = getattr(spec, "node", None)
    if node is not None:  # ClusterSpec
        block = {
            "kind": "cluster",
            "nodes": spec.nnodes,
            "cores_per_node": node.ncores,
            "node": node.name,
            "fabric": asdict(spec.fabric),
        }
        topo = node
    else:
        block = {
            "kind": "machine",
            "nodes": 1,
            "cores_per_node": spec.ncores,
            "node": spec.name,
        }
        topo = spec
    if bindings is not None:
        from repro.mpi.affinity import placement_summary

        summary = placement_summary(topo, list(bindings))
        summary["processes_per_cache"] = {
            str(die): count
            for die, count in sorted(summary["processes_per_cache"].items())
        }
        block["placement"] = summary
    return block


def resilience_block(fabric, policy=None) -> dict:
    """Summarize a run's fault/recovery activity for stored results.

    Sums the per-NIC reliability counters of ``fabric`` (duck-typed:
    anything with ``nics`` works), folds in the armed fault state's
    injection counters, and — when ``policy`` is given — the structured
    LMT downgrade events."""
    nics = list(getattr(fabric, "nics", []))
    block: dict = {
        "retransmits": sum(n.retransmits for n in nics),
        "rx_duplicates": sum(n.rx_duplicates for n in nics),
        "rx_corrupt_discards": sum(n.rx_corrupt_discards for n in nics),
        "rx_incomplete_discards": sum(n.rx_incomplete_discards for n in nics),
        "retries_exhausted": sum(n.retries_exhausted for n in nics),
        "backoff_seconds": sum(n.backoff_seconds for n in nics),
        "per_nic": [
            {
                "node": n.node,
                "retransmits": n.retransmits,
                "rx_duplicates": n.rx_duplicates,
                "rx_corrupt_discards": n.rx_corrupt_discards,
                "rx_incomplete_discards": n.rx_incomplete_discards,
                "retries_exhausted": n.retries_exhausted,
                "backoff_seconds": n.backoff_seconds,
            }
            for n in nics
        ],
    }
    faults = getattr(fabric, "faults", None)
    if faults is not None:
        block["injected"] = faults.counters()
    if policy is not None:
        block["downgrades"] = [dict(d) for d in getattr(policy, "downgrades", [])]
    return block


def obs_block(obs) -> dict:
    """Summarize a run's observability state for stored results.

    Takes a finalized :class:`repro.obs.ObsCollector` (``result.obs``)
    and returns the unified metrics snapshot plus — when spans were
    recorded — the per-phase sim-time attribution
    (:func:`repro.obs.phase_breakdown`): how much simulated time went
    to ``copy`` vs ``syscall`` vs ``pin`` vs ``dma`` vs ``wire``."""
    metrics = obs.metrics.snapshot()
    block: dict = {"metrics": metrics}
    if "regcache.hits" in metrics:
        # Pin-down cache summary (Liu et al.): surfaced as its own
        # sub-block so stored results show the hit rate and the exact
        # pinned-byte total without grepping the flat namespace.
        block["regcache"] = {
            name.split(".", 1)[1]: value
            for name, value in metrics.items()
            if name.startswith("regcache.")
        }
    if obs.enabled:
        block["phase_breakdown"] = obs.phase_breakdown()
        block["spans"] = len(obs.spans)
        block["dropped_spans"] = obs.dropped_spans
    return block


def format_json(
    sweep: Sweep, topology=None, resilience=None, obs=None,
    seeds: Optional[Sequence[int]] = None,
    indent: Optional[int] = 2
) -> str:
    """Serialize a sweep (plus the host description and, optionally, a
    :func:`resilience_block` and an :func:`obs_block`) as JSON.

    The noise seed(s) behind the run are recorded under ``"seeds"`` —
    taken from ``seeds`` if given, else from ``sweep.seeds`` — so the
    stored document always says which random streams produced it."""
    doc: dict = {
        "title": sweep.title,
        "xlabel": sweep.xlabel,
        "ylabel": sweep.ylabel,
    }
    if seeds is None:
        seeds = sweep.seeds
    if seeds is not None:
        doc["seeds"] = [int(s) for s in seeds]
    if topology is not None:
        doc["topology"] = topology_block(topology)
    if resilience is not None:
        doc["resilience"] = resilience
    if obs is not None:
        doc["observability"] = obs_block(obs)
    doc["series"] = [
        {"label": s.label, "points": [[x, y] for x, y in s.points]}
        for s in sweep.series
    ]
    return json.dumps(doc, indent=indent)
