"""Command-line entry point: regenerate any paper artifact.

Examples::

    repro-bench --figure 4
    repro-bench --figure 7 --fast
    repro-bench --table 1
    repro-bench --table 2
    repro-bench --thresholds
    repro-bench --list
    repro-bench trace --mode knem-ioat --size 1M --out trace.json
    repro-bench campaign run --backends default,knem --sizes 64K,1M --seeds 3
    repro-bench campaign compare --baseline BENCH_campaign.json
    repro-bench campaign run --suite offload --out BENCH_offload.json

Subcommands self-register in :data:`SUBCOMMANDS`; ``--list`` and the
dispatcher both read that one registry, so the help can never drift
from what actually runs (``tests/bench/test_cli.py`` pins this).
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _subcommand_lines() -> list[str]:
    """One line per registered subcommand, straight from the registry."""
    return [
        f"  {name:<10} {help_line}"
        for name, (_runner, help_line) in SUBCOMMANDS.items()
    ]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the ICPP'09 MPICH2-Nemesis/KNEM paper's "
        "figures and tables on the simulated testbed.",
        # The epilogue renders the live registry, so a new subcommand
        # appears in --help the moment it is added to SUBCOMMANDS —
        # no manual edit, no drift (the registry test pins this).
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="subcommands (repro-bench <name> --help for each):\n"
        + "\n".join(_subcommand_lines()),
    )
    p.add_argument("--figure", type=int, choices=[3, 4, 5, 6, 7], help="figure number")
    p.add_argument("--table", type=int, choices=[1, 2], help="table number")
    p.add_argument(
        "--thresholds",
        action="store_true",
        help="run the Sec. 3.5 DMAmin crossover experiments",
    )
    p.add_argument("--fast", action="store_true", help="coarser/cheaper sweeps")
    p.add_argument("--csv", action="store_true", help="CSV output for figures")
    p.add_argument("--chart", action="store_true", help="ASCII chart for figures")
    p.add_argument("--save", metavar="FILE", help="save the figure sweep as JSON")
    p.add_argument(
        "--compare",
        metavar="FILE",
        help="re-run the figure and diff against a saved JSON sweep",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="check every quantitative paper claim against the simulation",
    )
    p.add_argument("--list", action="store_true", help="list available artifacts")
    return p


def _trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench trace",
        description="Run a traced pingpong and export a Chrome-trace / "
        "Perfetto JSON (load it at ui.perfetto.dev).",
    )
    p.add_argument(
        "--mode",
        default="knem-ioat",
        help="LMT mode for the intranode pingpong (default: knem-ioat)",
    )
    p.add_argument(
        "--size",
        default="1MiB",
        help="message size, e.g. 256K or 4MiB (default: 1MiB)",
    )
    p.add_argument(
        "--reps", type=int, default=2, help="pingpong round trips (default: 2)"
    )
    p.add_argument(
        "--cluster",
        action="store_true",
        help="run a 2-node internode pingpong instead (NIC/wire tracks)",
    )
    p.add_argument(
        "--out", metavar="FILE", default="trace.json", help="Chrome-trace output"
    )
    p.add_argument("--jsonl", metavar="FILE", help="also write the span JSONL")
    p.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the exported trace (CI smoke test)",
    )
    return p


def _run_trace(argv: list[str]) -> int:
    args = _trace_parser().parse_args(argv)
    import json

    from repro.hw.presets import xeon_e5345
    from repro.obs import ObsConfig, validate_chrome_trace
    from repro.units import fmt_size, parse_size

    nbytes = parse_size(args.size)
    obs_cfg = ObsConfig(
        spans=True, chrome_path=args.out, jsonl_path=args.jsonl
    )

    def pingpong(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        status = None
        for i in range(args.reps):
            if ctx.rank == 0:
                yield comm.Send(buf, dest=peer, tag=i)
                status = yield comm.Recv(buf, source=peer, tag=i)
            else:
                status = yield comm.Recv(buf, source=peer, tag=i)
                yield comm.Send(buf, dest=peer, tag=i)
        return getattr(status, "path", None)

    if args.cluster:
        from repro.mpi.cluster import run_cluster
        from repro.net.fabric import ClusterSpec

        spec = ClusterSpec(node=xeon_e5345(), nnodes=2)
        result = run_cluster(
            spec, 2, pingpong, bindings=[(0, 0), (1, 0)],
            mode=args.mode, obs=obs_cfg,
        )
    else:
        from repro.mpi.world import run_mpi

        result = run_mpi(
            xeon_e5345(), 2, pingpong, bindings=[0, 4],
            mode=args.mode, obs=obs_cfg,
        )
    obs = result.obs
    print(
        f"pingpong {fmt_size(nbytes)} x{args.reps} path={result.results[-1]} "
        f"elapsed={result.elapsed * 1e6:.1f}us spans={len(obs.spans)}"
    )
    breakdown = obs.phase_breakdown()
    for kind, cell in sorted(breakdown.items()):
        if kind == "total" or not isinstance(cell, dict):
            continue
        print(
            f"  {kind:>8}: {cell['seconds'] * 1e6:10.2f}us "
            f"x{cell['count']:<4} {fmt_size(int(cell['nbytes']))}"
        )
    print(f"wrote {args.out}" + (f" and {args.jsonl}" if args.jsonl else ""))
    if args.validate:
        with open(args.out) as fh:
            stats = validate_chrome_trace(json.load(fh))
        print(f"trace OK: {json.dumps(stats)}")
    return 0


def _add_spec_axes(p: argparse.ArgumentParser) -> None:
    """Register the campaign-spec axis arguments on ``p``.

    A separate parser reads their defaults, so ``--suite`` can reject
    any axis flag that was given.
    """
    p.add_argument("--name", default="campaign", help="campaign name")
    p.add_argument(
        "--workload",
        default="pingpong",
        choices=["pingpong", "allreduce", "crossover", "sched", "nhood",
                 "offload"],
        help="what each trial measures (default: pingpong)",
    )
    p.add_argument(
        "--machine-generations",
        default="nehalem-era,modern",
        help="comma list of hardware generations (offload workload only; "
        "each fixes its machine preset and offload engine)",
    )
    p.add_argument(
        "--sched-policies",
        default="fifo",
        help="comma list of scheduler policies (sched workload only)",
    )
    p.add_argument(
        "--job-mixes",
        default="pair",
        help="comma list of job mixes (sched workload only)",
    )
    p.add_argument(
        "--patterns",
        default="irregular",
        help="comma list of graph patterns (nhood workload only)",
    )
    p.add_argument(
        "--strategies",
        default="direct,node-aware",
        help="comma list of exchange strategies (nhood workload only)",
    )
    p.add_argument(
        "--machines",
        default="xeon_e5345,xeon_x5460",
        help="comma list of machine presets",
    )
    p.add_argument(
        "--backends",
        default="default,knem,knem-ioat",
        help="comma list of LMT modes",
    )
    p.add_argument(
        "--sizes",
        default="64K,256K,1M",
        help="comma list of message sizes",
    )
    p.add_argument(
        "--nnodes", default="1", help="comma list of node counts (1 = intranode)"
    )
    p.add_argument(
        "--drops", default="0", help="comma list of injected wire drop rates"
    )
    p.add_argument(
        "--tunings", default="default", help="comma list from {default, flat}"
    )
    p.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="number of seeded replicates per config (seeds 0..N-1)",
    )
    p.add_argument(
        "--sigma", type=float, default=0.02, help="noise sigma (0 = off)"
    )
    p.add_argument("--reps", type=int, default=2, help="round trips per trial")
    p.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="also write a Perfetto trace per executed trial",
    )


def _campaign_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench campaign",
        description="Run declarative experiment campaigns over the "
        "simulated testbed: axis cross-products, a multiprocessing "
        "worker pool, a content-addressed result cache (re-runs are "
        "100%% cache hits; a killed run resumes where it stopped) and "
        "a baseline regression gate.",
    )
    p.add_argument(
        "action",
        choices=["run", "resume", "compare", "report"],
        help="run/resume a campaign, gate against a baseline, or "
        "pretty-print a saved campaign JSON",
    )
    _add_spec_axes(p)
    p.add_argument(
        "--suite",
        metavar="NAME",
        help="run: a committed suite (sched, nhood or offload) instead "
        "of the axes above; exits 1 naming every failed self-check",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=min(4, os.cpu_count() or 1),
        help="worker processes (<=1 runs serially in-process)",
    )
    p.add_argument(
        "--results-dir",
        default="results/campaign",
        metavar="URL",
        help="content-addressed result store: a directory path, "
        "sqlite:<file> (or any *.db path), or mem: "
        "(default: results/campaign)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="always execute every trial"
    )
    p.add_argument(
        "--out", metavar="FILE", help="write the campaign JSON document"
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline campaign JSON to gate against (compare)",
    )
    p.add_argument(
        "--campaign",
        metavar="FILE",
        help="saved campaign JSON to pretty-print (report)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative median drift allowed by the gate (default 0.05)",
    )
    return p


def _csv(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def _campaign_spec(args):
    """The spec the axis arguments name; a bad value raises
    :class:`~repro.errors.BenchmarkError`."""
    from repro.campaign import CampaignSpec
    from repro.errors import BenchmarkError
    from repro.units import parse_size

    try:
        sizes = tuple(parse_size(s) for s in _csv(args.sizes))
        nnodes = tuple(int(n) for n in _csv(args.nnodes))
        drops = tuple(float(d) for d in _csv(args.drops))
    except ValueError as exc:
        raise BenchmarkError(str(exc)) from None
    return CampaignSpec(
        name=args.name,
        workload=args.workload,
        machines=tuple(_csv(args.machines)),
        backends=tuple(_csv(args.backends)),
        sizes=sizes,
        nnodes=nnodes,
        drops=drops,
        tunings=tuple(_csv(args.tunings)),
        seeds=tuple(range(args.seeds)),
        reps=args.reps,
        noise_sigma=args.sigma,
        sched_policies=tuple(_csv(args.sched_policies)),
        job_mixes=tuple(_csv(args.job_mixes)),
        patterns=tuple(_csv(args.patterns)),
        strategies=tuple(_csv(args.strategies)),
        machine_generations=tuple(_csv(args.machine_generations)),
        trace_dir=args.trace_dir,
    )


def _print_campaign_doc(doc: dict) -> None:
    from repro.bench.reporting import format_table

    rows = []
    for agg in doc["aggregates"]:
        if agg["n"]:
            rows.append([
                agg["label"], agg["metric"], agg["n"], agg["median"],
                agg["iqr"], agg.get("ci_lo", "-"), agg.get("ci_hi", "-"),
            ])
        else:
            rows.append([agg["label"], agg["metric"] or "?", 0] + ["-"] * 4)
    print(format_table(
        ["trial group", "metric", "n", "median", "iqr", "ci_lo", "ci_hi"],
        rows,
        title=f"campaign {doc['name']!r} (seeds {doc['seeds']})",
    ))


def _print_failures(records: list[dict]) -> None:
    for record in records:
        print(
            f"FAILED {record['hash'][:12]} "
            f"{record['config']['workload']} seed={record['seed']}: "
            f"{record['error']}",
            file=sys.stderr,
        )


def _print_suite_doc(doc: dict) -> None:
    for campaign in doc["campaigns"]:
        _print_campaign_doc(campaign)
        _print_failures([t for t in campaign["trials"] if t["status"] != "ok"])
    print("self-check: " + "  ".join(
        f"{name}={'PASS' if ok else 'FAIL'}"
        for name, ok in doc["checks"].items()
    ))


def _run_suite_cli(args) -> int:
    """``campaign run --suite NAME``: run, save, print, self-check."""
    from repro.bench.store import atomic_write_json
    from repro.campaign import ResultCache
    from repro.campaign.suites import run_suite
    from repro.errors import BenchmarkError

    cache = None if args.no_cache else ResultCache.open(args.results_dir)
    try:
        doc = run_suite(args.suite, cache=cache, workers=args.workers)
    except BenchmarkError as exc:
        print(f"campaign run: {exc}", file=sys.stderr)
        return 2
    if args.out:
        atomic_write_json(args.out, doc)
        print(f"saved suite document to {args.out}", file=sys.stderr)
    _print_suite_doc(doc)
    failed = [name for name, ok in doc["checks"].items() if not ok]
    if failed:
        print(f"suite {args.suite!r} FAILED: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def _run_campaign_cli(argv: list[str]) -> int:
    args = _campaign_parser().parse_args(argv)
    import json

    from repro.bench.store import atomic_write_json
    from repro.campaign import ResultCache, compare_campaigns, run_campaign
    from repro.errors import BenchmarkError

    if args.action == "report":
        if not args.campaign:
            print("campaign report needs --campaign FILE", file=sys.stderr)
            return 2
        with open(args.campaign) as fh:
            doc = json.load(fh)
        if doc.get("kind") == "suite":
            _print_suite_doc(doc)
            return 0
        _print_campaign_doc(doc)
        summary = doc["summary"]
        print(
            f"trials {summary['trials']} | executed {summary['executed']} | "
            f"cache hits {summary['cache_hits']} | "
            f"failures {summary['failures']}"
        )
        return 0

    if args.suite:
        # A suite fixes its own axes: a flag that would change one is
        # an error, not something to drop silently.
        axes = argparse.ArgumentParser()
        _add_spec_axes(axes)
        given = [
            "--" + key.replace("_", "-")
            for key, default in vars(axes.parse_args([])).items()
            if getattr(args, key) != default
        ]
        if args.action != "run" or given:
            print("--suite runs with the run action only and takes no "
                  f"axis flags (got {' '.join([args.action, *given])})",
                  file=sys.stderr)
            return 2
        return _run_suite_cli(args)
    try:
        spec = _campaign_spec(args)
    except BenchmarkError as exc:
        print(f"campaign {args.action}: {exc}", file=sys.stderr)
        return 2

    cache = None if args.no_cache else ResultCache.open(args.results_dir)
    print(spec.describe(), file=sys.stderr)
    if args.action == "resume":
        # The rule run_campaign serves by: a torn record, a failure or
        # one stored under another config is not a cached trial.
        cached = sum(
            1 for t in spec.trials()
            if cache is not None and cache.serve(t) is not None
        )
        print(
            f"resuming: {cached}/{len(spec.trials())} trials already cached",
            file=sys.stderr,
        )
    run = run_campaign(spec, cache=cache, workers=args.workers)
    doc = run.document()
    if args.out:
        atomic_write_json(args.out, doc)
        print(f"saved campaign document to {args.out}", file=sys.stderr)
    _print_failures(run.failures)

    if args.action == "compare":
        if not args.baseline:
            print("campaign compare needs --baseline FILE", file=sys.stderr)
            return 2
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
            comparison = compare_campaigns(
                baseline, doc, tolerance=args.tolerance
            )
        except (OSError, json.JSONDecodeError, BenchmarkError) as exc:
            print(f"campaign compare: {exc}", file=sys.stderr)
            return 2
        print(comparison.format())
        print(run.describe())
        return 0 if comparison.ok else 1

    _print_campaign_doc(doc)
    print(run.describe())
    return 1 if run.failures else 0


#: The one subcommand registry: name -> (runner, one-line help).  The
#: dispatcher, ``--list``, and the top-level ``--help`` epilogue all
#: read this, so adding a subcommand here is the whole wiring job.
SUBCOMMANDS = {
    "trace": (_run_trace, "Perfetto/Chrome trace export of a pingpong"),
    "campaign": (
        _run_campaign_cli,
        "cached parallel sweeps, regression gate",
    ),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        runner, _help = SUBCOMMANDS[argv[0]]
        return runner(argv[1:])
    args = _parser().parse_args(argv)

    if args.list:
        print("figures: 3 4 5 6 7")
        print("tables:  1 2")
        print("extra:   --thresholds (Sec. 3.5 crossovers)")
        print("         --validate   (check every paper claim)")
        print("subcommands:")
        for name, (_runner, help_line) in SUBCOMMANDS.items():
            print(f"  {name:<10} {help_line}")
        return 0

    t0 = time.time()
    if args.figure:
        from repro.bench.figures import FIGURES
        from repro.bench.reporting import format_csv, format_series_table

        sweep = FIGURES[args.figure](fast=args.fast)
        if args.save:
            from repro.bench.store import save_sweep

            save_sweep(sweep, args.save)
            print(f"saved to {args.save}", file=sys.stderr)
        if args.compare:
            from repro.bench.store import compare_sweeps, load_sweep

            comparison = compare_sweeps(load_sweep(args.compare), sweep)
            print(comparison.format())
            return 0 if comparison.ok else 1
        if args.chart:
            from repro.bench.charts import ascii_chart

            print(ascii_chart(sweep))
        elif args.csv:
            print(format_csv(sweep))
        else:
            print(format_series_table(sweep))
    elif args.table == 1:
        from repro.bench.tables.table1 import format_table1, run_table1

        rows = run_table1(iterations_cap=5 if args.fast else 20)
        print(format_table1(rows))
    elif args.table == 2:
        from repro.bench.tables.table2 import format_table2, run_table2

        table = run_table2(is_iterations=2 if args.fast else 5)
        print(format_table2(table))
    elif args.validate:
        from repro.bench.validate import run_validation

        report = run_validation()
        print(report.format())
        if not report.all_passed:
            return 1
    elif args.thresholds:
        from repro.core.autotune import find_ioat_crossover
        from repro.hw.presets import xeon_e5345, xeon_x5460

        for topo, bindings in [
            (xeon_e5345(), (0, 1)),
            (xeon_e5345(), (0, 4)),
            (xeon_x5460(), (0, 1)),
        ]:
            print(find_ioat_crossover(topo, bindings).describe())
    else:
        _parser().print_help()
        return 2
    print(f"\n[{time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
