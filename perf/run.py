"""Host-time benchmark of the simulator: end-to-end and per-layer.

    python perf/run.py [--workload NAME] [--seed N] [--seconds S]
                       [--trace {0,1}] [--out FILE]

Runs from the root of a checkout and builds nothing: it imports
``repro`` from ``src/``.  For each workload (all of them by default,
one after another) this script starts fresh interpreters:

* three set-up probes, each timing ``import repro``, building the
  workload's inputs and running its first operation (``setup_s`` is
  their median);
* one measuring process, which runs a fixed number of rounds and
  reports ``round_s`` (host seconds for one round of the workload's
  operations, the sum of each operation's median over the rounds)
  and ``peak_rss_mib`` (its ``ru_maxrss`` after the first round).

Both times are in seconds at a fixed host speed: every wall is scaled
by the speed of a reference computation timed right before and after
it (``hostspeed.py``), so that other tenants of a shared host slowing
this one down do not read as a slower program.  ``--out`` also keeps
the unscaled ``round_wall_s``.

``--seconds`` picks the number of rounds through :data:`ROUND_S`, a
fixed table, so it never depends on how fast the measured commit is.
With ``--trace 1`` the measuring process wraps repro's layer entry
points instead and reports the ``per_layer`` metrics of
``BENCHMARK.json``; set-up is not probed.

Every operation's simulated outputs must equal ``perf/golden.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (metric names
are prefixed with the workload when several run).  The exit code is
non-zero if any operation failed or a process did not finish.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SETUP_PROBES = 3
#: Wall budget of one workload, set-up probes included.
WORKLOAD_TIMEOUT_S = 170.0
#: Host seconds of one timed round of each workload at reference host
#: speed, ``gc.collect()`` and host-speed samples between ops included,
#: at the commit that added this benchmark.  A run of ``--seconds S`` measures
#: the same :func:`rounds` of every commit, so a faster commit gets no
#: more samples than its parent.
ROUND_S = {"p2p": 2.25, "alltoall": 2.2, "nas-is": 1.4, "campaign": 0.9}
#: Scratch space of the workers (the campaign's sqlite stores and any
#: temporary file); it stays inside the checkout.
TMP = ROOT / ".perf_tmp" / str(os.getpid())


class BenchFailure(Exception):
    """A benchmark process failed; no result is printed."""


def rounds(name: str, seconds: float) -> int:
    """Measured rounds of workload ``name`` in a run of ``seconds``."""
    return max(2, round(seconds / ROUND_S[name]))


def _worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py ARGS`` in a fresh interpreter; its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(TMP))
    env.pop("PYTHONPATH", None)
    TMP.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(PERF / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchFailure(f"worker {' '.join(args)} timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchFailure(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result: ``correct``/``attempted``/``failed``/``metrics``."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    results = []
    if not trace:
        results = [_worker(["setup", name, str(seed)], deadline) for _ in range(SETUP_PROBES)]
    main = _worker(
        ["trace" if trace else "measure", name, str(seed), str(rounds(name, seconds))], deadline
    )
    metrics = dict(main["metrics"])
    if results:
        metrics["setup_s"] = statistics.median(r["metrics"]["setup_s"] for r in results)
    results.append(main)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for error in r["errors"]:
            print(f"{name}: FAILED {error}", file=sys.stderr)
    return {
        "correct": failed == 0 and bool(main["metrics"]),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="default: all, in order")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles operation order and draws campaign noise seeds")
    parser.add_argument("--seconds", type=float,
                        help="nominal measuring time per workload, turned into a fixed "
                             "round count (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    parser.add_argument("--out", type=Path, help="also write the results here as JSON")
    args = parser.parse_args(argv)
    # Unwind through _worker's cleanup, which kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    names = [args.workload] if args.workload else workloads
    results = {}
    try:
        for name in names:
            results[name] = result = run_workload(name, args.seed, seconds, bool(args.trace))
            for metric, unit in units.items():
                if metric in result["metrics"]:
                    print(f"{name:9s} {metric:28s} {result['metrics'][metric]:14.6g} {unit}")
    except BenchFailure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # Also removes what a killed worker left behind.
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            TMP.parent.rmdir()
        except OSError:  # missing, or another run is using it
            pass
    prefix = len(names) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": r["metrics"][metric], "unit": unit}
            for name, r in results.items()
            for metric, unit in units.items()
            if metric in r["metrics"]
        },
    }
    if args.out:
        args.out.write_text(json.dumps({
            "seed": args.seed,
            "seconds": seconds,
            "rounds": {name: rounds(name, seconds) for name in names},
            "trace": args.trace,
            "host": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": importlib.metadata.version("numpy"),
            },
            "workloads": results,
        }, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
