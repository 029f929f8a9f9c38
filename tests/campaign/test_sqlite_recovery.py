"""A torn sqlite store rebuilds empty and the next run refills it.

When the database file itself is destroyed, the store side-steps
sqlite's unrecoverable-file problem by moving the wreck aside and
starting empty.  Every lost record is then simply a miss: a resumed
pool campaign re-runs exactly those trials and lands on the same
document.
"""

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    canonical_json,
    run_campaign,
)
from repro.campaign.cache import SqliteStore
from repro.units import KiB

SPEC = CampaignSpec(
    name="fleet",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)


def test_truncated_db_rebuilds_and_serves(tmp_path):
    path = tmp_path / "results.db"
    store = SqliteStore(path)
    key = "ab" * 32
    store.put(key, {"status": "ok"})
    store.close()

    path.write_bytes(b"not a database at all")
    store = SqliteStore(path)
    assert store.get(key) is None  # rebuilt empty, not crashed
    assert path.with_suffix(".corrupt").exists()  # wreck kept for forensics
    store.put(key, {"status": "ok"})  # and writable again
    assert store.get(key) == {"status": "ok"}
    store.close()


def test_rebuild_mid_connection(tmp_path):
    """Corruption detected on a live connection (not just at open)."""
    path = tmp_path / "results.db"
    store = SqliteStore(path)
    store.put("ab" * 32, {"status": "ok"})
    # Overwrite the file under the open connection; WAL checkpointing
    # will hit the torn pages on the next statement.
    store._conn.close()
    path.write_bytes(b"\x00" * 64)
    store._connect()
    assert store.get("ab" * 32) is None
    assert path.with_suffix(".corrupt").exists()
    store.close()


def test_pool_campaign_recovers_from_torn_sqlite_store(tmp_path):
    """End to end: pool run → destroy the DB → resume → same document.

    The rebuilt (empty) store misses on every trial, so the resume
    re-executes them all and re-derives the exact same document.
    """
    db = tmp_path / "results.db"

    cache = ResultCache.open(db)
    first = run_campaign(SPEC, cache=cache, workers=2)
    cache.close()
    assert first.executed == len(first.records)

    db.write_bytes(b"garbage " * 100)  # the torn store

    cache = ResultCache.open(db)
    resumed = run_campaign(SPEC, cache=cache, workers=2)
    assert db.with_suffix(".corrupt").exists()
    assert resumed.executed == len(first.records)
    assert canonical_json(resumed.document()) == canonical_json(
        first.document()
    )
    # And the rebuilt store now holds every record again.
    assert len(cache) == len(first.records)
    cache.close()

