"""A `campaign run` SIGKILLed partway keeps every trial that finished:
its `campaign resume` executes only the rest and reports what a run
that was never interrupted reports.  Its pool workers do not outlive
it."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.campaign import ResultCache

SRC = Path(__file__).resolve().parents[2] / "src"
# Six trials of about 0.1 s each: long enough to kill between two of
# them, short enough to run whole.
AXES = [
    "--machines", "xeon_e5345",
    "--backends", "default,knem",
    "--sizes", "4M",
    "--seeds", "3",
]
N = 6


def _stored(url: str, path: Path) -> int:
    if not path.exists():
        return 0
    store = ResultCache.open(url)
    try:
        return len(store)
    finally:
        store.close()


def _kill(proc) -> None:
    """SIGKILL the run and its pool workers (they share its session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the run had already ended
        pass
    proc.wait()


def _live_members(pgid: int) -> list[int]:
    """PIDs of process group ``pgid`` that are still running.  A zombie
    has exited; it only waits for its new parent to reap it."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(stat.parent.name))
    return live


def _kill_orchestrator(proc) -> None:
    """SIGKILL the run's orchestrator alone; its pool workers must
    notice and exit, so its session empties within 10 s."""
    proc.kill()
    proc.wait()
    deadline = time.monotonic() + 10
    while _live_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = _live_members(proc.pid)
    assert not left, f"processes {left} outlived the killed orchestrator"


def _kill_after_first_stored(proc, url: str, path: Path, traces: Path) -> None:
    """SIGKILL ``proc`` once the store holds a record while some trial
    has not finished yet.  A trial's trace file is written when it
    finishes, before the orchestrator can store its record, so the
    traces count finished trials whatever the store does."""
    deadline = time.monotonic() + 120
    finished = 0
    while proc.poll() is None and time.monotonic() < deadline:
        stored = _stored(url, path)
        finished = len(list(traces.glob("*.trace.json")))
        if finished == N:
            break
        if stored:
            _kill_orchestrator(proc)
            return
        time.sleep(0.005)
    _kill(proc)
    pytest.fail(
        f"the store held {_stored(url, path)} records when {finished}/{N} "
        "trials had finished: records must land as trials finish"
    )


def _without_cached(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "cached"} for r in records]


@pytest.mark.parametrize("workers,store", [("0", "results"), ("2", "results.db")],
                         ids=["serial", "pooled"])
def test_killed_run_resumes_only_the_unfinished_trials(
    tmp_path, capsys, workers, store
):
    path = tmp_path / store
    url = str(path)
    traces = tmp_path / "traces"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.bench.cli", "campaign", "run", *AXES,
         "--workers", workers, "--results-dir", url,
         "--trace-dir", str(traces)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        _kill_after_first_stored(proc, url, path, traces)
    finally:
        _kill(proc)
    k = _stored(url, path)
    assert 1 <= k < N

    resumed = tmp_path / "resumed.json"
    assert main(["campaign", "resume", *AXES, "--workers", workers,
                 "--results-dir", url, "--out", str(resumed)]) == 0
    captured = capsys.readouterr()
    assert f"resuming: {k}/{N} trials already cached" in captured.err
    assert f"executed {N - k} | cache hits: {k}/{N}" in captured.out

    cold = tmp_path / "cold.json"
    assert main(["campaign", "run", *AXES, "--workers", "0", "--no-cache",
                 "--out", str(cold)]) == 0
    doc, ref = (json.loads(f.read_text()) for f in (resumed, cold))
    assert doc["aggregates"] == ref["aggregates"]
    assert _without_cached(doc["trials"]) == _without_cached(ref["trials"])
    assert sum(t["cached"] for t in doc["trials"]) == k
