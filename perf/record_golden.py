"""Write ``golden.json``: the simulated outputs every operation must reproduce.

    python perf/record_golden.py

Runs each p2p, alltoall and nas-is operation once, and every campaign
trial any benchmark seed can draw (the whole noise-seed pool).  Each
value is an exact ``repr``.  Engine event counts are left out on
purpose: a faster engine may execute fewer events for the same
results.  Regenerating this file is a change to the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF.parent / "src"))

import repro.campaign as campaign  # noqa: E402
import workloads  # noqa: E402


def record() -> dict:
    golden = {}
    for name in ("p2p", "alltoall", "nas-is"):
        for op in workloads.build(name, 0, None).ops:
            golden.update(op.run())
    spec = workloads.campaign_spec(range(workloads.CAMPAIGN_SEED_POOL))
    run = campaign.run_campaign(spec, workers=min(2, os.cpu_count() or 1))
    golden.update(workloads.trial_outputs(run.records))
    return golden


def main() -> None:
    golden = record()
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items())]
    workloads.GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} entries to {workloads.GOLDEN}")


if __name__ == "__main__":
    main()
