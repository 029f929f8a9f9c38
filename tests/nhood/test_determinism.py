"""Byte-identical determinism of the nhood pipeline.

Same inputs -> the same graphs, the same trial hashes, and the same
suite document, byte for byte — the property the committed
``BENCH_nhood.json`` regression anchor depends on.
"""

import json
from dataclasses import replace
from pathlib import Path

from repro.campaign.suites import SUITES
from repro.nhood import build_pattern

from ..campaign.reduced import run_reduced

REPO = Path(__file__).resolve().parent.parent.parent

IRREGULAR_4, _, STENCIL, INTERFERENCE = SUITES["nhood"].specs
SMALL_SPECS = (
    replace(IRREGULAR_4, backends=("knem",)),
    replace(STENCIL, backends=("knem",), nnodes=(4,)),
    INTERFERENCE,
)


def test_pattern_generators_bit_identical():
    for name, kwargs in [
        ("irregular", {"seed": 9, "degree": 7}),
        ("stencil2d", {}),
        ("stencil3d", {}),
    ]:
        a = build_pattern(name, 16, 320, **kwargs)
        b = build_pattern(name, 16, 320, **kwargs)
        assert a.graphs == b.graphs


def test_bench_document_byte_identical():
    """Two runs of the same reduced suite produce the same JSON bytes."""
    one = run_reduced("nhood", SMALL_SPECS)
    two = run_reduced("nhood", SMALL_SPECS)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_committed_trial_hashes_reproduce():
    """Expanding the suite's specs yields exactly the hashes in
    BENCH_nhood.json — seeds and configs have not drifted since the
    document was generated."""
    committed = json.loads((REPO / "BENCH_nhood.json").read_text())
    expected = [t.hash for spec in SUITES["nhood"].specs for t in spec.trials()]
    recorded = [t["hash"] for c in committed["campaigns"] for t in c["trials"]]
    assert recorded == expected
