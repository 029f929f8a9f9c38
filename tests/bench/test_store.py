"""Saving and comparing suite documents: ``campaign run --suite NAME
--out FILE`` and ``campaign compare --suite NAME --baseline FILE``,
and the atomic writer every store and document goes through."""

import copy
import json

import pytest

from repro.bench.cli import main
from repro.campaign.cache import atomic_write_json, fsync_dir

SUITE = "fig6-fast"


@pytest.fixture()
def saved(tmp_path, shared_suite_runs, capsys):
    """``SUITE``'s document as ``campaign run --suite --out`` saves it."""
    path = tmp_path / "fig6.json"
    assert main(["campaign", "run", "--suite", SUITE, "--out", str(path),
                 "--results-dir", "mem:"]) == 0
    capsys.readouterr()
    return path


def _compare(baseline, capsys) -> tuple[int, str]:
    rc = main(["campaign", "compare", "--suite", SUITE, "--baseline",
               str(baseline), "--results-dir", "mem:"])
    captured = capsys.readouterr()
    return rc, captured.out + captured.err


def _scaled(saved, tmp_path, scale):
    doc = json.loads(saved.read_text())
    for campaign in doc["campaigns"]:
        for row in campaign["aggregates"]:
            row["median"] *= scale
    path = tmp_path / f"scaled-{scale}.json"
    atomic_write_json(path, doc)
    return path


def test_save_load_roundtrip(saved, run_suite):
    doc = json.loads(saved.read_text())
    assert doc == json.loads(json.dumps(run_suite(SUITE)))
    assert [c["name"] for c in doc["campaigns"]] == ["fig6"]


def test_save_is_atomic(tmp_path):
    """An interrupted write can never leave a torn JSON behind."""
    path = tmp_path / "fig.json"
    atomic_write_json(path, {"x": 1})
    assert list(tmp_path.glob("*.tmp")) == []
    # A stale tmp from a killed writer never shadows the real file.
    path.with_suffix(".tmp").write_text('{"half": ')
    atomic_write_json(path, {"x": 2})
    assert json.loads(path.read_text()) == {"x": 2}
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_write_json_creates_parents(tmp_path):
    path = tmp_path / "a" / "b" / "doc.json"
    atomic_write_json(path, {"x": 1})
    assert json.loads(path.read_text()) == {"x": 1}


def test_fsync_dir_flushes_a_directory_entry(tmp_path):
    """Directory fsync after the rename is what makes the rename
    durable; on filesystems that refuse it, it degrades silently."""
    (tmp_path / "doc.json").write_text("{}")
    fsync_dir(tmp_path)  # must not raise on a normal directory
    fsync_dir(str(tmp_path))  # str paths accepted too


def test_seeds_roundtrip(saved):
    """Every campaign of a saved suite says which seeds produced it,
    and every trial record carries its own."""
    for campaign in json.loads(saved.read_text())["campaigns"]:
        assert campaign["seeds"] == [0]
        assert {t["seed"] for t in campaign["trials"]} == {0}


def test_load_missing_and_corrupt(tmp_path, shared_suite_runs, capsys):
    rc, out = _compare(tmp_path / "nope.json", capsys)
    assert rc == 2 and "nope.json" in out
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out = _compare(bad, capsys)
    assert rc == 2 and "campaign compare" in out


def test_compare_identical_is_ok(saved, capsys):
    rc, out = _compare(saved, capsys)
    assert rc == 0
    assert "campaign comparison: fig6" in out and "result: OK" in out
    assert "+0.00%" in out


def test_compare_flags_regressions(saved, tmp_path, capsys):
    rc, out = _compare(_scaled(saved, tmp_path, 1 / 0.8), capsys)
    assert rc == 1
    assert "REGRESSIONS" in out


def test_compare_within_tolerance_passes(saved, tmp_path, capsys):
    rc, out = _compare(_scaled(saved, tmp_path, 1 / 0.97), capsys)
    assert rc == 0 and "result: OK" in out


def test_compare_missing_series_rejected(saved, tmp_path, capsys):
    doc = json.loads(saved.read_text())
    other = copy.deepcopy(doc)
    other["campaigns"][0]["name"] = "other"
    path = tmp_path / "other.json"
    atomic_write_json(path, other)
    rc, out = _compare(path, capsys)
    assert rc == 2 and "baseline lacks campaign 'fig6'" in out
    other = dict(doc, name="fig5-fast")
    atomic_write_json(path, other)
    rc, out = _compare(path, capsys)
    assert rc == 2 and "not a 'fig6-fast' suite document" in out


def test_cli_save_and_compare(tmp_path, shared_suite_runs, capsys):
    path = tmp_path / "fig6.json"
    assert main(["campaign", "run", "--suite", SUITE, "--out", str(path),
                 "--results-dir", "mem:"]) == 0
    capsys.readouterr()
    # Deterministic simulation: an immediate re-run compares clean.
    rc, out = _compare(path, capsys)
    assert rc == 0 and "OK" in out
