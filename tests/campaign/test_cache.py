"""Content-addressed result cache: atomicity, misses, resume."""

import json

import pytest

from repro.campaign import ResultCache, trial_hash
from repro.errors import BenchmarkError

KEY = trial_hash({"workload": "pingpong", "seed": 0})
RECORD = {"hash": KEY, "status": "ok", "metrics": {"mib_per_s": 1234.5}}


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache.open(tmp_path / "results")
    assert cache.get(KEY) is None
    cache.put(KEY, RECORD)
    assert cache.get(KEY) == RECORD
    assert KEY in cache
    assert len(cache) == 1
    assert cache.keys() == [KEY]


def test_put_is_atomic_and_leaves_no_tmp(tmp_path):
    cache = ResultCache.open(tmp_path)
    cache.put(KEY, RECORD)
    assert list(tmp_path.glob("*.tmp")) == []
    # Overwrite goes through the same tmp+rename path.
    cache.put(KEY, {**RECORD, "metrics": {"mib_per_s": 1.0}})
    assert cache.get(KEY)["metrics"]["mib_per_s"] == 1.0
    assert list(tmp_path.glob("*.tmp")) == []


def test_corrupt_record_is_a_miss_and_deleted(tmp_path):
    cache = ResultCache.open(tmp_path)
    path = cache.path(KEY)
    path.write_text('{"torn": ')
    assert cache.get(KEY) is None
    assert not path.exists()
    # Non-dict JSON is rejected the same way.
    path.write_text("[1, 2, 3]")
    assert cache.get(KEY) is None
    assert not path.exists()


def test_interrupted_writer_leaves_previous_version_intact(tmp_path):
    cache = ResultCache.open(tmp_path)
    cache.put(KEY, RECORD)
    # Simulate a writer killed mid-write: a half-written tmp file
    # beside the intact record.
    cache.path(KEY).with_suffix(".tmp").write_text('{"half": ')
    assert cache.get(KEY) == RECORD


def test_torn_record_at_final_path_self_heals(tmp_path):
    """A writer died leaving half a record at the *final* path.  The
    next reader must treat it as a miss, delete it, and a fresh put
    must land cleanly."""
    cache = ResultCache.open(tmp_path)
    full = json.dumps(RECORD)
    cache.path(KEY).write_text(full[: len(full) // 2])
    assert cache.get(KEY) is None
    assert not cache.path(KEY).exists()
    cache.put(KEY, RECORD)
    assert cache.get(KEY) == RECORD


def test_bad_keys_rejected(tmp_path):
    cache = ResultCache.open(tmp_path)
    with pytest.raises(BenchmarkError):
        cache.path("../escape")
    with pytest.raises(BenchmarkError):
        cache.path("")
    with pytest.raises(BenchmarkError):
        cache.path("UPPER")


def test_record_survives_process_boundary_format(tmp_path):
    """Stored records are plain JSON (inspectable, tool-friendly)."""
    cache = ResultCache.open(tmp_path)
    cache.put(KEY, RECORD)
    assert json.loads(cache.path(KEY).read_text()) == RECORD


# --------------------------------------------- healing, seen in the store
def test_torn_record_is_missed_and_deleted_from_the_store(tmp_path):
    cache = ResultCache.open(tmp_path)
    assert cache.get(KEY) is None  # absent -> miss, nothing written
    assert cache.keys() == []
    cache.put(KEY, RECORD)
    assert cache.get(KEY) == cache.get(KEY) == RECORD  # reads change nothing
    assert cache.keys() == [KEY]
    cache.path(KEY).write_text('{"torn": ')
    assert cache.get(KEY) is None  # torn -> healed, read as a miss
    assert KEY not in cache and cache.keys() == []
    assert not cache.path(KEY).exists()


def test_resume_serves_every_trial_and_leaves_the_store_as_it_was(tmp_path):
    """A second run over the same store serves every trial from it and
    rewrites nothing."""
    from repro.campaign import CampaignSpec, run_campaign
    from repro.units import KiB

    spec = CampaignSpec(
        name="resume",
        backends=("default",),
        sizes=(64 * KiB,),
        seeds=(0,),
    )
    run_campaign(spec, cache=ResultCache.open(tmp_path))
    before = {p.name: p.read_text() for p in tmp_path.glob("*.json")}
    cache = ResultCache.open(tmp_path)  # fresh process-equivalent
    again = run_campaign(spec, cache=cache)
    assert again.executed == 0
    assert again.cache_hits == len(spec.trials()) > 0
    assert {p.name: p.read_text() for p in tmp_path.glob("*.json")} == before
