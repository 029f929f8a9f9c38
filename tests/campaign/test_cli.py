"""End-to-end `repro-bench campaign` runs (in-process)."""

import json

import pytest

from repro.bench.cli import main

AXES = [
    "--machines", "xeon_e5345",
    "--backends", "default",
    "--sizes", "16K,64K",
    "--seeds", "3",
    "--workers", "0",
]


def _run(tmp_path, action, *extra):
    return main([
        "campaign", action,
        *AXES,
        "--results-dir", str(tmp_path / "results"),
        *extra,
    ])


def test_run_then_resume_hits_cache_fully(tmp_path, capsys):
    out_file = tmp_path / "BENCH_campaign.json"
    assert _run(tmp_path, "run", "--out", str(out_file)) == 0
    out = capsys.readouterr().out
    assert "cache hits: 0/6 (0.0%)" in out
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "campaign"
    assert doc["seeds"] == [0, 1, 2]
    assert doc["summary"] == {
        "trials": 6, "executed": 6, "cache_hits": 0, "failures": 0,
        "quarantined": 0,
    }
    assert all(t["seed"] == t["config"]["seed"] for t in doc["trials"])

    assert _run(tmp_path, "resume", "--out", str(out_file)) == 0
    out2 = capsys.readouterr().out
    assert "cache hits: 6/6 (100.0%)" in out2
    doc2 = json.loads(out_file.read_text())
    assert doc2["summary"]["executed"] == 0
    assert doc2["aggregates"] == doc["aggregates"]


def test_resume_preview_counts_only_servable_records(tmp_path, capsys):
    """A torn record is not a cached trial: the preview line and the
    run that follows agree on what resume serves."""
    from repro.campaign import ResultCache

    argv = ["--sizes", "16K", "--seeds", "2"]
    assert _run(tmp_path, "run", *argv) == 0
    store = ResultCache.open(tmp_path / "results")
    store.path(store.keys()[0]).write_text('{"torn": ')
    capsys.readouterr()
    assert _run(tmp_path, "resume", *argv) == 0
    captured = capsys.readouterr()
    assert "resuming: 1/2 trials already cached" in captured.err
    assert "executed 1 | cache hits: 1/2" in captured.out


def test_results_dir_db_path_and_sqlite_url_open_one_store(tmp_path, capsys):
    """``--results-dir`` reads a ``*.db`` path as a sqlite file, which
    ``sqlite:<path>`` reopens."""
    db = tmp_path / "x.db"
    assert main(["campaign", "run", *AXES, "--results-dir", str(db)]) == 0
    assert db.is_file()
    capsys.readouterr()
    assert main([
        "campaign", "resume", *AXES, "--results-dir", f"sqlite:{db}",
    ]) == 0
    out = capsys.readouterr().out
    assert "cache hits: 6/6 (100.0%)" in out and "executed 0" in out


def test_pool_run_matches_plain_document(tmp_path, capsys):
    plain_out = tmp_path / "plain.json"
    assert _run(tmp_path / "a", "run", "--out", str(plain_out)) == 0
    capsys.readouterr()
    pool_out = tmp_path / "pool.json"
    assert _run(
        tmp_path / "b", "run", "--workers", "2", "--out", str(pool_out),
    ) == 0
    # The pool is plumbing: the documents are identical.
    assert json.loads(pool_out.read_text()) == json.loads(
        plain_out.read_text()
    )


def test_compare_gate_exits_nonzero_on_drift(tmp_path, capsys):
    baseline = tmp_path / "base.json"
    assert _run(tmp_path, "run", "--out", str(baseline)) == 0
    capsys.readouterr()
    # Identical re-run (all cache hits) passes the gate.
    assert _run(tmp_path, "compare", "--baseline", str(baseline)) == 0
    assert "result: OK" in capsys.readouterr().out
    # Inject 20 % drift into the stored baseline: the gate must fail
    # and name the regressed trial groups.
    doc = json.loads(baseline.read_text())
    for row in doc["aggregates"]:
        row["median"] *= 1.2
    baseline.write_text(json.dumps(doc))
    assert _run(tmp_path, "compare", "--baseline", str(baseline)) == 1
    out = capsys.readouterr().out
    assert "REGRESSIONS" in out
    assert "pingpong/xeon_e5345/default/16KiB/n1" in out


def test_compare_requires_baseline(tmp_path, capsys):
    assert _run(tmp_path, "compare") == 2


def test_report_pretty_prints_saved_document(tmp_path, capsys):
    out_file = tmp_path / "camp.json"
    assert _run(tmp_path, "run", "--out", str(out_file)) == 0
    capsys.readouterr()
    assert main(["campaign", "report", "--campaign", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "trial group" in out
    assert "pingpong/xeon_e5345/default/64KiB/n1" in out
    assert main(["campaign", "report"]) == 2


def test_report_prints_no_band_for_a_one_sample_group(tmp_path, capsys):
    out_file = tmp_path / "camp.json"
    assert _run(tmp_path, "run", "--seeds", "1", "--out", str(out_file)) == 0
    (row,) = [
        r for r in json.loads(out_file.read_text())["aggregates"]
        if r["label"].startswith("pingpong/xeon_e5345/default/64KiB")
    ]
    assert row["n"] == 1 and "ci_lo" not in row
    capsys.readouterr()
    assert main(["campaign", "report", "--campaign", str(out_file)]) == 0
    (line,) = [
        ln for ln in capsys.readouterr().out.splitlines()
        if "default/64KiB" in ln
    ]
    cells = [c.strip() for c in line.split("|")]
    assert cells[-2:] == ["-", "-"]


@pytest.mark.parametrize("extra,message", [
    (["--backends", "bogus"], "unknown LMT backend 'bogus'"),
    (["--sizes", "64K,64K", "--seeds", "1"], "campaign axis 'sizes' repeats 65536"),
    (["--sizes", "12Q"], "cannot parse size: '12Q'"),
])
def test_bad_spec_value_exits_2_with_its_message(tmp_path, capsys, extra, message):
    argv = ["campaign", "run", "--results-dir", str(tmp_path), *extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "results").exists()

