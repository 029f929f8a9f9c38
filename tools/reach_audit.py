"""Which functions in ``src/repro`` does no paper artifact reach?

    python tools/reach_audit.py [--runs NAME,...] [--keep DIR]

Runs every artifact of the repository -- the paper's figures, tables,
thresholds and claims, the CLI's other commands, the committed
suites, a small campaign with every subcommand, the examples, the
``perf/`` workloads and (when ``pytest-benchmark`` is installed) the
``benchmarks/`` suite -- each in a fresh interpreter under a
``sys.setprofile`` hook that records every code object called.  It
then matches the recorded ``(file, co_firstlineno)`` pairs against
every ``def`` in ``src/repro`` and prints, file by file, the
outermost functions that no run called (a nested function of an
unreached function is not listed again), with their line counts.

The hook is stdlib only (``coverage`` is not needed).  Campaign pool
workers record too: they are forked, inherit the hook, and write their
calls when they exit.  The whole audit takes about 15 minutes on two
cores, and several runs write scratch files, all under a temporary
directory.
"""

from __future__ import annotations

import argparse
import ast
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"

CLI = ["-m", "repro.bench.cli"]
#: A 12-trial pingpong campaign (the CI smoke axes), run over a pool.
SMOKE = ["--machines", "xeon_e5345", "--backends", "default,knem",
         "--sizes", "64K,256K", "--seeds", "3"]


def runs(tmp: Path) -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of every audited run; ``argv`` follows
    ``python``.  Files the runs write go under ``tmp``."""
    db = str(tmp / "smoke.db")
    out = [
        ("validate", [*CLI, "--validate"]),
        ("figure3-csv", [*CLI, "--figure", "3", "--fast", "--csv"]),
        ("figure4-chart", [*CLI, "--figure", "4", "--fast", "--chart"]),
        ("figure5-save", [*CLI, "campaign", "run", "--suite", "fig5-fast",
                          "--no-cache", "--out", str(tmp / "fig5.json")]),
        ("figure5-compare", [*CLI, "campaign", "compare", "--suite",
                             "fig5-fast", "--no-cache",
                             "--baseline", str(tmp / "fig5.json")]),
        ("figure6", [*CLI, "--figure", "6", "--fast"]),
        ("figure7", [*CLI, "--figure", "7", "--fast"]),
        ("table1", [*CLI, "--table", "1", "--fast"]),
        ("table2", [*CLI, "--table", "2", "--fast"]),
        ("thresholds", [*CLI, "--thresholds"]),
        ("list", [*CLI, "--list"]),
        ("help", [*CLI, "--help"]),
        ("trace", [*CLI, "trace", "--size", "256K",
                   "--out", str(tmp / "trace.json"),
                   "--jsonl", str(tmp / "trace.jsonl"), "--validate"]),
        ("trace-cluster", [*CLI, "trace", "--cluster", "--size", "256K",
                           "--out", str(tmp / "trace-cluster.json"),
                           "--validate"]),
    ]
    out += [
        (f"suite-{s}", [*CLI, "campaign", "run", "--suite", s, "--no-cache",
                        "--out", str(tmp / f"suite-{s}.json")])
        for s in ("sched", "nhood", "offload")
    ]
    out += [
        ("campaign-run", [*CLI, "campaign", "run", *SMOKE, "--workers", "2",
                          "--results-dir", db,
                          "--out", str(tmp / "smoke.json")]),
        ("campaign-resume", [*CLI, "campaign", "resume", *SMOKE,
                             "--workers", "2", "--results-dir", db]),
        ("campaign-compare", [*CLI, "campaign", "compare", *SMOKE,
                              "--results-dir", db,
                              "--baseline", str(ROOT / "BENCH_campaign.json")]),
        ("campaign-report", [*CLI, "campaign", "report",
                             "--campaign", str(tmp / "smoke.json")]),
        ("allreduce", [*CLI, "campaign", "run", "--workload", "allreduce",
                       "--nnodes", "1,2", "--tunings", "default,flat",
                       "--sizes", "64K", "--no-cache"]),
        ("crossover", [*CLI, "campaign", "run", "--workload", "crossover",
                       "--backends", "knem", "--seeds", "1", "--sigma", "0",
                       "--no-cache"]),
        ("pingpong-drops", [*CLI, "campaign", "run", "--nnodes", "2",
                            "--drops", "0.01", "--sizes", "256K",
                            "--no-cache"]),
        ("trace-dir", [*CLI, "campaign", "run", "--sizes", "64K",
                       "--trace-dir", str(tmp / "traces"), "--no-cache"]),
    ]
    out += [
        (f"example-{p.stem}", [str(p)])
        for p in sorted((ROOT / "examples").glob("*.py"))
    ]
    worker = str(ROOT / "perf" / "worker.py")
    out += [
        ("perf-p2p", [worker, "measure", "p2p", "0", "1"]),
        ("perf-alltoall-traced", [worker, "trace", "alltoall", "0", "2"]),
        ("perf-nas-is", [worker, "measure", "nas-is", "0", "1"]),
        ("perf-campaign", [worker, "measure", "campaign", "0", "1"]),
    ]
    try:
        import pytest_benchmark  # noqa: F401
    except ImportError:
        pass
    else:
        out.append(("benchmarks", ["-m", "pytest", str(ROOT / "benchmarks"),
                                   "--benchmark-only", "-q",
                                   "-p", "no:cacheprovider"]))
    return out


# ------------------------------------------------------------ child side
def _record(out_dir: str, argv: list[str]) -> None:
    """Run ``argv`` (a ``python`` command line) in this interpreter under
    the profile hook; write the called code objects under ``out_dir``."""
    import multiprocessing.util as mp_util
    import runpy
    import threading

    seen: set = set()

    def hook(frame, event, arg, _add=seen.add):
        if event == "call":
            _add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        keys = {(c.co_filename, c.co_firstlineno) for c in seen}
        path = Path(out_dir) / f"{os.getpid()}-{time.monotonic_ns()}.pickle"
        path.write_bytes(pickle.dumps(keys))

    class _Child:
        """Re-arms the dump in every forked pool worker, which leaves
        through ``os._exit`` (no ``atexit``) after its finalizers."""

    child = _Child()
    mp_util.register_after_fork(
        child, lambda _: mp_util.Finalize(None, dump, exitpriority=100)
    )

    if argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        run = lambda: runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path.insert(0, str(Path(argv[0]).resolve().parent))
        run = lambda: runpy.run_path(argv[0], run_name="__main__")
    threading.setprofile(hook)
    sys.setprofile(hook)
    code = 0
    try:
        run()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        dump()
    sys.stdout.flush()
    os._exit(code)


# ----------------------------------------------------------- parent side
def _defs() -> list[tuple[str, int, int, str, tuple]]:
    """``(file, first line, line count, qualified name, enclosing)`` of
    every ``def`` in the package, ``enclosing`` being the ``(file,
    first line)`` keys of the functions it is nested in.  The first
    line is the one ``co_firstlineno`` reports: the first decorator's,
    if any."""
    out = []
    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def walk(node, prefix: str, parents: list) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    name = f"{prefix}{child.name}"
                    out.append((str(path), first, child.end_lineno - first + 1,
                                name, tuple(parents)))
                    walk(child, f"{name}.", [*parents, (str(path), first)])
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", parents)
                else:
                    walk(child, prefix, parents)

        walk(tree, "", [])
    return out


def audit(names: list[str] | None, keep: Path | None) -> int:
    tmp = Path(keep) if keep else Path(tempfile.mkdtemp(prefix="reach-audit-"))
    tmp.mkdir(parents=True, exist_ok=True)
    rec = tmp / "records"
    rec.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    selected = [r for r in runs(tmp) if names is None or r[0] in names]
    failed = []
    for name, argv in selected:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(rec), "--", *argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        if proc.returncode != 0:
            failed.append(name)
        print(f"[{time.monotonic() - t0:6.1f}s] {name}: {status}", file=sys.stderr)
    called: set = set()
    for f in rec.glob("*.pickle"):
        called |= pickle.loads(f.read_bytes())

    defs = _defs()
    reached = {(f, line) for f, line, *_ in defs if (f, line) in called}
    by_file: dict[str, list] = {}
    lines = 0
    for f, line, n, name, parents in defs:
        if (f, line) in reached:
            continue
        # Listed once, under its outermost unreached enclosing function.
        if any(p not in reached for p in parents):
            continue
        by_file.setdefault(f, []).append((line, n, name))
        lines += n
    for f in sorted(by_file):
        print(os.path.relpath(f, ROOT))
        for line, n, name in by_file[f]:
            print(f"  {line:5d}  {n:4d} lines  {name}")
    total = sum(len(v) for v in by_file.values())
    print(f"\n{len(selected)} runs ({len(failed)} failed: {', '.join(failed) or '-'})")
    print(f"{len(defs)} functions in src/repro, {len(reached)} reached; "
          f"{total} outermost unreached functions, {lines} lines")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        _record(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", help="comma list of run names (default: all)")
    parser.add_argument("--keep", help="scratch directory to keep (default: a new temp dir)")
    parser.add_argument("--list", action="store_true", help="list the run names")
    args = parser.parse_args(argv)
    if args.list:
        for name, argv_ in runs(Path("TMP")):
            print(f"{name}: python {' '.join(argv_)}")
        return 0
    names = args.runs.split(",") if args.runs else None
    return audit(names, Path(args.keep) if args.keep else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
