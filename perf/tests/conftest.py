"""Make the benchmark's modules and repro importable:

    python -m pytest perf/tests -q
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
for path in (PERF, PERF.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
