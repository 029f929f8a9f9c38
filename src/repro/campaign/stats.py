"""Aggregate seeded replicates and gate regressions against a baseline.

:func:`aggregate` folds a campaign's trial records into one row per
replicate group (the trial config minus its seed): median, quartiles,
IQR, and a notched-boxplot-style confidence band
(``median +- 1.58 * IQR / sqrt(n)``), left out of a group with fewer
than two samples, where a zero-width band would read as exact.
:func:`compare_campaigns` then diffs two campaign documents
group-by-group and flags any median drift beyond tolerance — the
regression gate behind ``repro-bench campaign compare`` (non-zero exit
naming the regressed trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.campaign.spec import group_config, group_label
from repro.errors import BenchmarkError

__all__ = ["aggregate", "compare_campaigns", "CampaignComparison"]


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted list."""
    if not sorted_vals:
        raise BenchmarkError("quantile of an empty sample")
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_vals[lo]
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def aggregate(records: list[dict]) -> list[dict]:
    """One row per replicate group, in first-appearance order.

    Failed replicates are counted but excluded from the statistics; a
    group with no successful replicate still appears (``n == 0``) so a
    baseline comparison can notice it went dark.
    """
    order: list[str] = []
    groups: dict[str, dict] = {}
    for record in records:
        cfg = record["config"]
        key = group_label(cfg)
        if key not in groups:
            order.append(key)
            groups[key] = {
                "label": key,
                "config": group_config(cfg),
                "metric": record.get("primary"),
                "seeds": [],
                "values": [],
                "failures": 0,
            }
        group = groups[key]
        if record["status"] != "ok":
            group["failures"] += 1
            continue
        group["seeds"].append(record["seed"])
        value = (record["metrics"] or {}).get(record.get("primary"))
        if value is not None:
            group["values"].append(float(value))
            group["metric"] = record["primary"]
    out = []
    for key in order:
        group = groups[key]
        values = sorted(group.pop("values"))
        n = len(values)
        row = {**group, "n": n}
        if n:
            median = _quantile(values, 0.5)
            q25 = _quantile(values, 0.25)
            q75 = _quantile(values, 0.75)
            iqr = q75 - q25
            row.update(median=median, q25=q25, q75=q75, iqr=iqr)
            if n > 1:
                band = 1.58 * iqr / math.sqrt(n)
                row.update(ci_lo=median - band, ci_hi=median + band)
            row.update(min=values[0], max=values[-1])
        out.append(row)
    return out


@dataclass
class CampaignComparison:
    """Group-by-group drift between a baseline and a fresh campaign."""

    name: str
    #: (label, metric, baseline median, current median, drift) rows.
    rows: list[tuple[str, str, float, float, float]] = field(
        default_factory=list
    )
    #: Groups with successful baseline replicates but none now.
    broken: list[str] = field(default_factory=list)
    #: Current groups absent from the baseline (new axes — not gated).
    unmatched: list[str] = field(default_factory=list)
    tolerance: float = 0.05

    def add(self, label: str, metric: str, base: float, cur: float) -> None:
        drift = (cur - base) / base if base else 0.0
        self.rows.append((label, metric, base, cur, drift))

    @property
    def regressions(self) -> list[tuple[str, str, float, float, float]]:
        return [r for r in self.rows if abs(r[4]) > self.tolerance]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.broken

    def format(self) -> str:
        lines = [
            f"campaign comparison: {self.name} "
            f"(tolerance ±{self.tolerance:.0%})"
        ]
        for label, metric, base, cur, drift in self.rows:
            flag = "!!" if abs(drift) > self.tolerance else "  "
            lines.append(
                f" {flag} {label:44.44s} {metric:>15.15s} "
                f"{base:12.2f} -> {cur:12.2f}  {drift:+7.2%}"
            )
        for label in self.broken:
            lines.append(f" !! {label:44.44s} baseline ok, now failing")
        if self.unmatched:
            lines.append(
                f"    ({len(self.unmatched)} group(s) not in baseline, "
                "not gated)"
            )
        if self.ok:
            lines.append("result: OK")
        else:
            names = [r[0] for r in self.regressions] + self.broken
            lines.append(
                f"result: {len(names)} REGRESSIONS: " + ", ".join(names)
            )
        return "\n".join(lines)


def compare_campaigns(
    baseline: dict, current: dict, tolerance: float = 0.05
) -> CampaignComparison:
    """Diff two campaign documents (as produced by ``document()``).

    Groups are matched by label; drift is measured on group medians of
    the primary metric.  A group that had successful replicates in the
    baseline but none now counts as a regression.
    """
    comparison = CampaignComparison(
        name=current.get("name", "campaign"), tolerance=tolerance
    )
    base_rows = {row["label"]: row for row in baseline.get("aggregates", [])}
    for row in current.get("aggregates", []):
        base = base_rows.get(row["label"])
        if base is None:
            comparison.unmatched.append(row["label"])
            continue
        if base.get("n", 0) == 0:
            continue  # baseline never measured this group
        if row.get("n", 0) == 0:
            comparison.broken.append(row["label"])
            continue
        comparison.add(
            row["label"], row.get("metric") or "?",
            float(base["median"]), float(row["median"]),
        )
    if not comparison.rows and not comparison.broken:
        raise BenchmarkError("no comparable groups between the campaigns")
    return comparison
