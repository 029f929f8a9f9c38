"""The committed campaign suites: documents, predicates and the CLI.

The committed ``BENCH_{sched,nhood,offload,claims}.json`` must come
from the suite specs as they stand (same trial hashes) and pass every
check.  Each predicate is then shown to fail on a document doctored to
break exactly the property it guards.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.campaign import trial_hash
from repro.campaign.suites import SUITES, check_passed, check_suite, run_suite
from repro.errors import BenchmarkError

REPO = Path(__file__).resolve().parent.parent.parent

#: The suites whose documents are committed as ``BENCH_<name>.json``.
COMMITTED = ("claims", "nhood", "offload", "sched")
#: Checks that read no trial: ``dmamin-formula`` is preset arithmetic.
TRIAL_FREE = {("claims", "dmamin-formula")}


def _committed(name: str) -> dict:
    return json.loads((REPO / f"BENCH_{name}.json").read_text())


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_document_comes_from_the_suite(name):
    doc = _committed(name)
    assert doc["kind"] == "suite" and doc["name"] == name
    specs = SUITES[name].specs
    assert [c["spec"] for c in doc["campaigns"]] == [
        json.loads(json.dumps(s.to_dict())) for s in specs
    ]
    for campaign, spec in zip(doc["campaigns"], specs):
        assert [t["hash"] for t in campaign["trials"]] == [
            t.hash for t in spec.trials()
        ]
        for t in campaign["trials"]:
            assert t["status"] == "ok"
            assert t["hash"] == trial_hash(t["config"])
    assert doc["checks"] == check_suite(name, doc["campaigns"])
    assert set(doc["checks"]) == set(SUITES[name].checks)
    assert all(map(check_passed, doc["checks"].values())), doc["checks"]


# ------------------------------------------------------- doctored documents
def _trial(campaigns, **match):
    found = [
        t for c in campaigns for t in c["trials"]
        if all(t["config"].get(k) == v for k, v in match.items())
    ]
    assert found, match
    return found


def _victim(campaigns, mix, mode):
    (t,) = _trial(campaigns, workload="sched", job_mix=mix, backend=mode)
    return t["metrics"]["jobs"]["victim"]


def _sched_gaps_closed(c):
    shm = _victim(c, "pair", "default")
    _victim(c, "pair", "knem-ioat-async")["l2_lines_evicted_by_others"] = (
        shm["l2_lines_evicted_by_others"]
    )


def _sched_slowdowns_equal(c):
    shm = _victim(c, "pair", "default")
    _victim(c, "pair", "knem-ioat-async")["slowdown"] = shm["slowdown"]


def _sched_dma_evicts(c):
    _victim(c, "pair", "knem-ioat-async")["l2_lines_evicted_by_others"] = 1


def _nhood_node_aware(c, pattern, key, value_of_direct):
    (direct,) = _trial(c, pattern=pattern, nnodes=4, backend="knem",
                       strategy="direct")
    (na,) = _trial(c, pattern=pattern, nnodes=4, backend="knem",
                   strategy="node-aware")
    na["metrics"][key] = value_of_direct(direct["metrics"][key])


def _offload_trials(c, generation):
    return sorted(_trial(c, machine_generation=generation),
                  key=lambda t: t["config"]["size"])


def _offload_last_loses(c):
    _offload_trials(c, "modern")[-1]["metrics"]["offload_wins"] = False


def _offload_cpu_ties_first(c):
    m = _offload_trials(c, "nehalem-era")[0]["metrics"]
    m["cpu_mib_per_s"] = m["offload_mib_per_s"]


def _offload_engine_ties_last(c):
    m = _offload_trials(c, "modern")[-1]["metrics"]
    m["offload_mib_per_s"] = m["cpu_mib_per_s"]


def _offload_same_crossover(c):
    # nehalem-era crosses at 3 MiB; make modern cross there too.
    for t in _offload_trials(c, "modern"):
        t["metrics"]["offload_wins"] = t["config"]["size"] >= 3 << 20


def _pingpong(c, mode, size, pair):
    (t,) = _trial(c, workload="imb-pingpong", backend=mode, size=size,
                  pair=list(pair))
    return t["metrics"]


def _alltoall(c, mode, size, eager=None):
    (t,) = _trial(c, workload="imb-alltoall", backend=mode, size=size,
                  eager_threshold=eager)
    return t["metrics"]


def _pp_scale(mode, size, pair, factor, metric="mib_per_s"):
    def doctor(c):
        _pingpong(c, mode, size, pair)[metric] *= factor
    return doctor


def _nas_seconds(kernel, factor):
    def doctor(c):
        (t,) = _trial(c, workload="nas", benchmark=kernel, backend="knem-ioat")
        t["metrics"]["seconds"] *= factor
    return doctor


def _crossover_at(pair, size):
    def doctor(c):
        (t,) = _trial(c, workload="crossover", pair=list(pair))
        t["metrics"]["crossover_bytes"] = size
    return doctor


SHARED, REMOTE, MiB, KiB = (0, 1), (0, 4), 1 << 20, 1 << 10

DOCTORS = {
    ("sched", "eviction_gap_ok"): _sched_gaps_closed,
    ("sched", "slowdown_gap_ok"): _sched_slowdowns_equal,
    ("sched", "dma_evicts_nothing"): _sched_dma_evicts,
    ("nhood", "msg_gap_ok"): lambda c: _nhood_node_aware(
        c, "stencil2d", "internode_msgs", lambda d: d),
    ("nhood", "latency_ok"): lambda c: _nhood_node_aware(
        c, "irregular", "seconds", lambda d: 2 * d),
    ("nhood", "bandwidth_regime_ok"): lambda c: _nhood_node_aware(
        c, "stencil2d", "seconds", lambda d: d / 2),
    ("nhood", "interference_ok"): lambda c: _victim(
        c, "nhood", "knem-ioat-async").update(l2_lines_evicted_by_others=1),
    ("offload", "modern_crossover_found"): _offload_last_loses,
    ("offload", "nehalem_era_cpu_wins_below"): _offload_cpu_ties_first,
    ("offload", "modern_offload_wins_above"): _offload_engine_ties_last,
    ("offload", "generations_differ"): _offload_same_crossover,
    ("offload", "nehalem_era_crossover_found"): lambda c: _offload_trials(
        c, "nehalem-era")[-1]["metrics"].update(offload_wins=False),
    ("offload", "modern_cpu_wins_below"): lambda c: _offload_trials(
        c, "modern")[0]["metrics"].update(cpu_mib_per_s=0.0),
    ("offload", "nehalem_era_offload_wins_above"): lambda c: _offload_trials(
        c, "nehalem-era")[-1]["metrics"].update(offload_mib_per_s=0.0),
    # Each claim's trials moved just past its bound.
    ("claims", "fig3-splice-vs-writev"):
        _pp_scale("vmsplice", 2 * MiB, SHARED, 0.5),
    ("claims", "fig3-regime-split"):
        _pp_scale("vmsplice", 1 * MiB, SHARED, 1.3),
    ("claims", "fig4-knem-almost-default"):
        _pp_scale("knem", 1 * MiB, SHARED, 0.9),
    ("claims", "fig5-knem-factor"): _pp_scale("knem", 1 * MiB, REMOTE, 0.75),
    ("claims", "fig5-knem-vs-vmsplice"):
        _pp_scale("vmsplice", 1 * MiB, REMOTE, 1.2),
    ("claims", "fig5-ioat-tail"): _pp_scale("knem-ioat", 4 * MiB, REMOTE, 0.8),
    ("claims", "fig6-kthread-competition"):
        _pp_scale("knem-async", 1 * MiB, REMOTE, 1.5),
    ("claims", "fig6-async-ioat"):
        _pp_scale("knem-ioat-async", 4 * MiB, REMOTE, 0.9),
    ("claims", "fig7-knem-medium"): lambda c: _alltoall(
        c, "knem", 32 * KiB, 2 * KiB).update(aggregated_mib_per_s=1.0),
    ("claims", "fig7-ioat-tail"): lambda c: _alltoall(
        c, "knem-ioat", 2 * MiB).update(aggregated_mib_per_s=1.0),
    ("claims", "table1-is-speedup"): _nas_seconds("is.B.8", 1.2),
    ("claims", "table1-ep-insensitive"): _nas_seconds("ep.B.4", 1.05),
    ("claims", "table2-pingpong-misses"):
        _pp_scale("knem", 4 * MiB, REMOTE, 2, "l2_misses"),
    ("claims", "threshold-order"): _crossover_at(SHARED, 8 * MiB),
}


def test_every_predicate_has_a_doctored_document():
    assert set(DOCTORS) | TRIAL_FREE == {
        (name, check) for name, suite in SUITES.items() for check in suite.checks
    }


@pytest.mark.parametrize("name,check", sorted(DOCTORS))
def test_predicate_fails_on_a_doctored_document(name, check):
    campaigns = copy.deepcopy(_committed(name)["campaigns"])
    assert check_passed(check_suite(name, campaigns)[check])
    DOCTORS[name, check](campaigns)
    result = check_suite(name, campaigns)[check]
    if name == "claims":
        # A failing claim's margin is negative, or absent where the
        # doctored values leave its ratios undefined.
        assert result["pass"] is False
        assert result["margin"] is None or result["margin"] < 0
    else:
        assert result is False


@pytest.mark.parametrize("name", COMMITTED)
def test_a_failed_trial_fails_its_checks(name):
    campaigns = copy.deepcopy(_committed(name)["campaigns"])
    for campaign in campaigns:
        for t in campaign["trials"]:
            t.update(status="failed", metrics=None, error="boom")
    assert not any(
        check_passed(ok) for check, ok in check_suite(name, campaigns).items()
        if (name, check) not in TRIAL_FREE
    )


def test_unknown_suite_is_rejected():
    with pytest.raises(BenchmarkError, match="unknown suite 'bogus'"):
        run_suite("bogus")


# ---------------------------------------------------------------------- CLI
def test_cli_suite_reproduces_the_committed_document(tmp_path, capsys):
    out = tmp_path / "sched.json"
    args = ["campaign", "run", "--suite", "sched", "--workers", "0",
            "--results-dir", str(tmp_path / "results"), "--out", str(out)]
    assert main(args) == 0
    assert out.read_bytes() == (REPO / "BENCH_sched.json").read_bytes()
    assert "eviction_gap_ok=PASS" in capsys.readouterr().out
    # A warm rerun serves every trial from the cache: same bytes.
    assert main(args) == 0
    assert out.read_bytes() == (REPO / "BENCH_sched.json").read_bytes()


def test_cli_suite_names_every_failed_check(monkeypatch, tmp_path, capsys):
    import repro.campaign.suites as suites

    doctored = copy.deepcopy(_committed("sched"))
    doctored["checks"] = dict(doctored["checks"], slowdown_gap_ok=False,
                              dma_evicts_nothing=False)
    monkeypatch.setattr(suites, "run_suite", lambda *a, **k: doctored)
    assert main(["campaign", "run", "--suite", "sched",
                 "--results-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "slowdown_gap_ok=FAIL" in captured.out
    assert "FAILED: slowdown_gap_ok, dma_evicts_nothing" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["run", "--suite", "bogus"], "unknown suite 'bogus'"),
    (["resume", "--suite", "sched"], "--suite runs with the run action only"),
    (["run", "--suite", "sched", "--sizes", "1M", "--seeds", "2"],
     "takes no axis flags (got run --sizes --seeds)"),
])
def test_cli_suite_misuse_exits_2(tmp_path, capsys, argv, message):
    argv = ["campaign", *argv, "--results-dir", str(tmp_path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_cli_report_prints_a_suite_document(capsys):
    path = REPO / "BENCH_nhood.json"
    assert main(["campaign", "report", "--campaign", str(path)]) == 0
    out = capsys.readouterr().out
    assert "campaign 'nhood-stencil2d'" in out
    assert "self-check: msg_gap_ok=PASS" in out
