"""Tests for the paper-claim suite and its ``--validate`` report."""

import json
from pathlib import Path

import pytest

from repro.bench.reporting import format_claims
from repro.campaign.suites import CLAIMS, SUITES, check_passed

REPO = Path(__file__).resolve().parent.parent.parent


def test_claims_have_unique_ids_and_sources():
    assert list(SUITES["claims"].checks) == list(CLAIMS)
    assert len(CLAIMS) == 15
    assert all(source and statement for source, statement, _ in CLAIMS.values())


def test_claim_selection():
    """A claim is one predicate of the suite: ``dmamin-formula`` reads
    no trial, so it evaluates over no campaign at all."""
    entry = CLAIMS["dmamin-formula"][2]([])
    assert entry["pass"]
    assert entry["margin"] is None  # exact equality: no margin


def test_fast_claim_subset_passes(run_suite):
    checks = run_suite("claims")["checks"]
    subset = ["dmamin-formula", "fig5-knem-factor", "fig6-kthread-competition"]
    assert all(check_passed(checks[c]) for c in subset), {c: checks[c] for c in subset}
    for claim in subset[1:]:
        assert checks[claim]["margin"] > 0


def test_report_format_readable():
    claim = {"dmamin-formula": CLAIMS["dmamin-formula"]}
    text = format_claims({"dmamin-formula": claim["dmamin-formula"][2]([])}, claim)
    assert "PASS" in text and "dmamin-formula" in text
    assert "exact check, no margin" in text
    assert "1 passed, 0 failed" in text


@pytest.mark.slow
def test_all_claims_pass(run_suite):
    doc = run_suite("claims")
    assert all(check_passed(c) for c in doc["checks"].values()), format_claims(
        doc["checks"], CLAIMS
    )


def test_claim_value_line_shows_interval_margin_and_paper():
    from repro.bench.reporting import format_claim_value

    line = format_claim_value({
        "value": 0.311, "interval": [0.15, 0.45], "closed": False,
        "margin": 0.463, "paper": 0.258, "unit": "%",
    })
    assert line == "+31.1% in (+15.0%, +45.0%), margin +0.46, paper +25.8%"
    line = format_claim_value({
        "value": 2.9, "interval": [1.5, None], "closed": False,
        "margin": 0.93, "paper": None, "unit": "x",
    })
    assert line == "2.90x in (1.50x, inf), margin +0.93, paper -"


#: Each claim's committed margin floor: its margin when the claims
#: became a suite, rounded down to a multiple of 0.05.  None: an exact
#: check (``dmamin-formula``), which has no margin.
MARGIN_FLOORS = {
    "fig3-splice-vs-writev": 0.90,
    "fig3-regime-split": 0.20,
    "fig4-knem-almost-default": 0.40,
    "fig5-knem-factor": 0.25,
    "fig5-knem-vs-vmsplice": 0.15,
    "fig5-ioat-tail": 0.20,
    "fig6-kthread-competition": 0.30,
    "fig6-async-ioat": 0.05,
    "fig7-knem-medium": 0.15,
    "fig7-ioat-tail": 0.20,
    "table1-is-speedup": 0.45,
    "table1-ep-insensitive": 0.50,
    "table2-pingpong-misses": 0.30,
    "dmamin-formula": None,
    "threshold-order": 0.00,
}


def test_committed_margins_hold_their_floors():
    """``BENCH_claims.json`` (rerun cold byte for byte in CI) keeps
    every claim at or above its floor: a claim drifting toward failure
    fails here before it flips."""
    doc = json.loads((REPO / "BENCH_claims.json").read_text())
    assert list(doc["checks"]) == list(MARGIN_FLOORS)
    for claim, floor in MARGIN_FLOORS.items():
        entry = doc["checks"][claim]
        assert entry["pass"], claim
        if floor is None:
            assert entry["margin"] is None, claim
        else:
            assert entry["margin"] >= floor, (claim, entry["margin"], floor)
