"""Compare two sets of benchmark results, metric by metric.

    python perf/compare.py BASE.json... -- NEW.json... [--claim WORKLOAD:METRIC]...

Each file is written by ``run.py --out``.  For every workload and
end-to-end metric of ``BENCHMARK.json`` it prints both sides' median
and quartiles over their files and one verdict:

* ``improved``   -- every new run beats every base run, or the new
  median is better by more than the base quartile spread;
* ``regressed``  -- the new median is worse by more than the bound;
* ``unresolved`` -- the base spread is wider than the bound, so
  neither of the above could be told from noise (unless every new run
  beats every base run);
* ``unchanged``  -- otherwise;
* ``failed``     -- before any of the above: the new runs failed more
  operations of the workload than the base runs, or lack the metric.

A claimed metric is ``improved`` only if, besides, the new run wins at
least 9 of every 10 pairs (base file i against new file i, the order
in which they alternated) over at least 10 pairs.  Exits non-zero if a
row regressed or failed, or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.campaign.stats import _quantile  # noqa: E402

#: A claim needs this share of pair wins over at least MIN_PAIRS pairs.
PAIR_WINS = 0.9
MIN_PAIRS = 10


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    s = sorted(values)
    return _quantile(s, 0.5), _quantile(s, 0.25), _quantile(s, 0.75)


def verdict(base: list[float], new: list[float], better: str, bound: float,
            claim: bool = False) -> str:
    """One row's verdict; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, b_q1, b_q3 = summary(base)
    n_med, _, _ = summary(new)
    worse = sign * (n_med - b_med) / abs(b_med)
    spread = (b_q3 - b_q1) / abs(b_med)
    dominates = all(sign * (n - b) < 0 for n in new for b in base)
    if claim:
        wins = sum(sign * (n - b) < 0 for b, n in zip(base, new))
        pairs = min(len(base), len(new))
        if pairs < MIN_PAIRS or wins < PAIR_WINS * pairs:
            return "unresolved" if worse <= bound else "regressed"
    if dominates or (spread <= bound and -worse > spread):
        return "improved"
    if spread > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "unchanged"


def _load(paths: list[Path]) -> tuple[dict[tuple[str, str], list[float]], dict[str, list[int]]]:
    """(workload, metric) -> values, one per file, in file order; and
    workload -> [runs, failed operations] over the files (a run that
    is not ``correct`` counts at least one failed operation)."""
    values: dict[tuple[str, str], list[float]] = {}
    runs: dict[str, list[int]] = {}
    for path in paths:
        doc = json.loads(path.read_text())
        for workload, result in doc["workloads"].items():
            tally = runs.setdefault(workload, [0, 0])
            tally[0] += 1
            tally[1] += max(result["failed"], not result["correct"])
            for metric, value in result["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values, runs


def compare(base_paths, new_paths, claims=()) -> tuple[list[str], bool]:
    """Report lines and whether the comparison passed.

    A row is ``failed`` when the new side failed more operations of its
    workload than the base side, or lacks a metric the base reports:
    a timing of wrong outputs, or a missing one, counts for nothing.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (base, base_runs), (new, new_runs) = _load(base_paths), _load(new_paths)
    lines = [f"{'workload':9s} {'metric':13s} {'base median [q1, q3]':>32s} "
             f"{'new median [q1, q3]':>32s} {'change':>8s}  verdict"]
    ok = True
    for workload in dict.fromkeys(w for w, _ in base):
        runs, failed = new_runs.get(workload, [0, 0])
        for spec in bench["end_to_end"]:
            key = (workload, spec["name"])
            if key not in base:
                continue
            b = summary(base[key])
            if not runs or failed > base_runs[workload][1] or len(new.get(key, ())) < runs:
                ok = False
                lines.append(
                    f"{workload:9s} {spec['name']:13s} {_fmt(b):>32s} {'-':>32s} "
                    f"{'':>8s}  failed ({failed} failed ops in {runs} runs, "
                    f"base {base_runs[workload][1]})"
                )
                continue
            claimed = f"{workload}:{spec['name']}" in claims
            v = verdict(base[key], new[key], spec["better"], spec["bound"], claimed)
            n = summary(new[key])
            ok &= v != "regressed" and (v == "improved" or not claimed)
            lines.append(
                f"{workload:9s} {spec['name']:13s} {_fmt(b):>32s} {_fmt(n):>32s} "
                f"{(n[0] - b[0]) / b[0]:+8.1%}  {v}{' (claimed)' if claimed else ''}"
            )
    return lines, ok


def _fmt(s: tuple[float, float, float]) -> str:
    return f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}]"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: compare.py BASE.json... -- NEW.json... [--claim WORKLOAD:METRIC]",
              file=sys.stderr)
        return 2
    cut = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("new", nargs="+", type=Path)
    parser.add_argument("--claim", action="append", default=[])
    args = parser.parse_args(argv[cut + 1:])
    lines, ok = compare([Path(p) for p in argv[:cut]], args.new, set(args.claim))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
