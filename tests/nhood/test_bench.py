"""Tests for the nhood suite document and its self-checks.

A reduced suite (one irregular + one stencil case, one LMT mode, the
full interference experiment) keeps the in-test cost low; the committed
full document is validated structurally and by recomputing its trial
hashes.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.cli import _print_suite_doc
from repro.campaign.spec import trial_hash
from repro.campaign.suites import SUITES

from ..campaign.reduced import run_reduced

REPO = Path(__file__).resolve().parent.parent.parent

IRREGULAR_4, _, STENCIL, INTERFERENCE = SUITES["nhood"].specs
SMALL_SPECS = (
    replace(IRREGULAR_4, backends=("knem",)),
    replace(STENCIL, backends=("knem",), nnodes=(4,)),
    INTERFERENCE,
)


@pytest.fixture(scope="module")
def doc():
    return run_reduced("nhood", SMALL_SPECS)


def _sweep(doc):
    return [t for c in doc["campaigns"] for t in c["trials"]
            if t["config"]["workload"] == "nhood"]


def _pairs(doc):
    """(config, direct metrics, node-aware metrics) per case and mode."""
    trials = _sweep(doc)
    return [
        (d["config"], d["metrics"], na["metrics"])
        for d in trials if d["config"]["strategy"] == "direct"
        for na in trials
        if na["config"] == {**d["config"], "strategy": "node-aware"}
    ]


def _victims(doc):
    (shm,), (dma,) = (
        [t["metrics"]["jobs"]["victim"] for t in doc["campaigns"][-1]["trials"]
         if t["config"]["backend"] == mode]
        for mode in ("default", "knem-ioat-async")
    )
    return shm, dma


def test_self_checks_pass(doc):
    check = doc["checks"]
    assert check["msg_gap_ok"]
    assert check["latency_ok"]
    assert check["bandwidth_regime_ok"]
    assert check["interference_ok"]
    assert all(check.values())


def test_sweep_records_metrics(doc):
    trials = _sweep(doc)
    assert len(trials) == 2 * 1 * 2  # cases x modes x strategies
    for t in trials:
        assert t["status"] == "ok"
        assert t["hash"] == trial_hash(t["config"])
        m = t["metrics"]
        assert m["seconds"] > 0
        assert m["internode_msgs"] > 0
        if t["config"]["strategy"] == "node-aware":
            assert m["internode_msgs_saved"] > 0
            assert m["leader_footprint_bytes"] > 0
            assert m["pack_bytes"] > 0


def test_gap_directions(doc):
    pairs = _pairs(doc)
    assert len(pairs) == 2
    for config, direct, na in pairs:
        assert na["internode_msgs"] < direct["internode_msgs"]
        speedup = direct["seconds"] / na["seconds"]
        if config["pattern"] == "irregular":
            assert speedup > 1.0
        else:
            assert speedup < 1.0


def test_interference_gap(doc):
    shm, dma = _victims(doc)
    assert shm["l2_lines_evicted_by_others"] > 0
    assert dma["l2_lines_evicted_by_others"] == 0
    assert shm["l2_lines_evicted_by_others"] > dma["l2_lines_evicted_by_others"]
    assert shm["slowdown"] > dma["slowdown"]


def test_format_renders(doc, capsys):
    _print_suite_doc(doc)
    text = capsys.readouterr().out
    assert "irregular" in text and "stencil2d" in text
    assert "self-check" in text and "FAIL" not in text


def test_committed_document_is_fresh():
    """The committed BENCH_nhood.json must carry the full suite, its
    recorded trial hashes must recompute from their configs, and its
    self-check must have passed."""
    path = REPO / "BENCH_nhood.json"
    committed = json.loads(path.read_text())
    assert committed["name"] == "nhood"
    assert all(committed["checks"].values())
    assert [c["spec"]["name"] for c in committed["campaigns"]] == [
        s.name for s in SUITES["nhood"].specs
    ]
    for c in committed["campaigns"]:
        for t in c["trials"]:
            assert t["hash"] == trial_hash(t["config"])
