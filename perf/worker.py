"""One workload in a fresh interpreter; ``run.py`` launches this.

    python perf/worker.py setup   WORKLOAD SEED
    python perf/worker.py measure WORKLOAD SEED ROUNDS
    python perf/worker.py trace   WORKLOAD SEED ROUNDS

The last line of standard output is one JSON object.  ``setup`` times
importing repro, building the workload's inputs and running its first
operation.  ``measure`` runs one untimed round in the workload's
order, then ``ROUNDS`` timed rounds in orders shuffled from the seed
(see :func:`measure`).  ``setup`` and ``measure`` report seconds at a
fixed host speed (see ``hostspeed.py``).  ``trace`` runs one round
without wrappers, then half as many traced rounds (at least one) and
reports per-layer metrics.  Every operation's simulated outputs are
checked against ``golden.json``.  Scratch files go under ``$TMPDIR``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import repro  # noqa: E402
import workloads  # noqa: E402

#: How many failure messages a result carries.
MAX_ERRORS = 5
#: Host-speed samples taken right after set-up to scale its wall.
SETUP_SAMPLES = 3


class Runner:
    """Runs operations, timing each and checking it against golden."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op) -> float | None:
        """Wall seconds of ``op``, or None if it failed."""
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outputs = op.run()
        except Exception:  # a failing op is counted, never fatal
            self._fail(f"{op.name}: {traceback.format_exc(limit=3)}")
            return None
        elapsed = time.perf_counter() - t0
        wrong = workloads.check(outputs, self.golden, op.keys)
        if wrong:
            self._fail(f"{op.name}: outputs differ from golden.json at {wrong[:3]}")
            return None
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def round(self, ops, rng: random.Random) -> float:
        """Every op once in shuffled order; the sum of their walls."""
        return sum(self.run(op) or 0.0 for op in rng.sample(ops, len(ops)))


def measure(workload, runner: Runner, seed: int, rounds: int) -> dict:
    """``round_s`` and ``peak_rss_mib`` of one measuring process.

    A first, untimed round in the workload's own order warms the
    process up; the memory high-water mark is read after it, so it does
    not depend on the seed.  ``rounds`` timed rounds follow in
    seed-shuffled orders.  A host-speed sample is taken before the
    first timed op and after every op, and each op's wall is scaled by
    the samples on either side of it.  ``round_s`` sums each op's
    median scaled time over the rounds (``round_wall_s``, reported
    beside it, the median walls).  Every op must succeed in every
    round, or no metric is reported.
    """
    for op in workload.ops:
        runner.run(op)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host = hostspeed.HostSpeed()
    walls: dict[str, list[float]] = {op.name: [] for op in workload.ops}
    scaled: dict[str, list[float]] = {op.name: [] for op in workload.ops}
    rng = random.Random(seed)
    speed = host.sample()
    for _ in range(rounds):
        for op in rng.sample(workload.ops, len(workload.ops)):
            wall = runner.run(op)
            before, speed = speed, host.sample()
            if wall is not None:
                walls[op.name].append(wall)
                scaled[op.name].append(wall * hostspeed.scale(before, speed))
    if any(len(w) != rounds for w in walls.values()):
        return {}
    return {
        "round_s": sum(statistics.median(s) for s in scaled.values()),
        "peak_rss_mib": peak_rss_mib,
        "round_wall_s": sum(statistics.median(w) for w in walls.values()),
    }


def trace(workload, runner: Runner, seed: int, rounds: int) -> dict:
    """Per-layer metrics: one round untraced, then ``rounds // 2`` traced.

    Traced rounds run about 1.5 times slower, so a trace run takes
    about as long as a measuring run of ``rounds`` rounds.
    """
    from layertrace import Tracer, layer_metrics, probes

    rng = random.Random(seed)
    runner.run(workload.first)
    untraced = runner.round(workload.ops, rng)
    tracer = Tracer()
    tracer.install(probes())
    try:
        traced = [runner.round(workload.ops, rng) for _ in range(max(1, rounds // 2))]
    finally:
        tracer.uninstall()
    return layer_metrics(tracer, len(traced), sum(traced) / len(traced), untraced)


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    rounds = int(argv[3]) if len(argv) > 3 else 0
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-"))
    try:
        workload = workloads.build(name, seed, tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    try:
        runner = Runner(json.loads(workloads.GOLDEN.read_text()))
        if mode == "setup":
            runner.run(workload.first)
            wall = time.perf_counter() - T0
            host = hostspeed.HostSpeed()
            samples = [host.sample() for _ in range(SETUP_SAMPLES)]
            result = {"setup_s": wall * hostspeed.scale(*samples)}
        elif mode == "measure":
            result = measure(workload, runner, seed, rounds)
        elif mode == "trace":
            result = trace(workload, runner, seed, rounds)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
