"""ResultCache conformance: every backend passes the same suite."""

import json
import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.campaign.cache import (
    DirectoryStore,
    MemoryStore,
    ResultCache,
    SqliteStore,
    check_key,
)
from repro.errors import BenchmarkError

KEY = "ab" * 32
KEY2 = "cd" * 32
RECORD = {"hash": KEY, "status": "ok", "metrics": {"mib_per_s": 1234.5}}


@pytest.fixture(params=["directory", "sqlite", "memory"])
def store(request, tmp_path):
    url = {
        "directory": tmp_path / "results",
        "sqlite": f"sqlite:{tmp_path}/results.db",
        "memory": "mem:",
    }[request.param]
    s = ResultCache.open(url)
    assert isinstance(s, {
        "directory": DirectoryStore,
        "sqlite": SqliteStore,
        "memory": MemoryStore,
    }[request.param])
    yield s
    s.close()


def plant(store, key, text):
    """Store raw ``text`` under ``key``, bypassing ``put``."""
    if isinstance(store, DirectoryStore):
        store.path(key).write_text(text)
    elif isinstance(store, SqliteStore):
        store._execute(
            "INSERT OR REPLACE INTO results (key, payload) VALUES (?, ?)",
            (key, text),
        )
    else:
        store._data[key] = text


# ------------------------------------------------------------- conformance
def test_get_put_roundtrip(store):
    assert store.get(KEY) is None
    store.put(KEY, RECORD)
    assert store.get(KEY) == RECORD
    assert KEY in store
    assert len(store) == 1


def test_roundtrip_preserves_key_order_and_floats(store):
    record = {"z": 1, "a": 0.1 + 0.2, "nested": {"y": None, "b": [1, 2]}}
    store.put(KEY, record)
    got = store.get(KEY)
    assert json.dumps(got) == json.dumps(record)  # order + float exactness


def test_put_replaces(store):
    store.put(KEY, {"v": 1})
    store.put(KEY, {"v": 2})
    assert store.get(KEY) == {"v": 2}
    assert len(store) == 1


def test_delete_is_idempotent(store):
    store.put(KEY, RECORD)
    store.delete(KEY)
    store.delete(KEY)  # absent: no error
    assert store.get(KEY) is None
    assert KEY not in store


def test_keys_sorted(store):
    store.put(KEY2, RECORD)
    store.put(KEY, RECORD)
    assert store.keys() == sorted([KEY, KEY2])


def test_non_hex_keys_rejected(store):
    for bad in ("", "../../etc/passwd", "ABCDEF", "xyz", "a b"):
        with pytest.raises(BenchmarkError):
            store.put(bad, RECORD)
        with pytest.raises(BenchmarkError):
            store.get(bad)


def _hex_by_set(key: str) -> bool:
    """The key test ``check_key`` used to run: non-empty, every
    character a lower-case hex digit."""
    return bool(key) and set(key) <= set(string.hexdigits.lower())


@given(st.text(alphabet=st.sampled_from("0123456789abcdefABCDEFg \n٣१")) | st.text())
@example("")
@example("ABCDEF")
@example("abc\n")
@example("\nabc")
@example("٣")  # ARABIC-INDIC DIGIT THREE: a digit, not a hex digit
@example("１２")  # fullwidth digits
@example("deadbeef")
def test_check_key_accepts_exactly_the_hex_set(key):
    try:
        accepted = check_key(key) == key
    except BenchmarkError:
        accepted = False
    assert accepted == _hex_by_set(key)


def test_corrupt_record_healed_as_miss(store):
    """A record that will not parse is deleted and missed — the trial
    re-runs instead of serving garbage."""
    store.put(KEY, RECORD)
    plant(store, KEY, "{torn")
    assert store.get(KEY) is None
    assert KEY not in store and store.keys() == []  # deleted
    assert store.get(KEY) is None
    store.put(KEY, RECORD)  # and the slot is writable again
    assert store.get(KEY) == RECORD


def test_non_dict_record_healed(store):
    plant(store, KEY, "[1, 2]")
    assert store.get(KEY) is None
    assert KEY not in store and store.keys() == []


# ---------------------------------------------------------------- specifics
def test_memory_store_reads_are_copies():
    store = MemoryStore()
    store.put(KEY, {"v": [1, 2]})
    store.get(KEY)["v"].append(3)
    assert store.get(KEY) == {"v": [1, 2]}


def test_sqlite_wal_mode(tmp_path):
    store = SqliteStore(tmp_path / "r.db")
    mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
    assert mode.lower() == "wal"
    store.close()


def test_sqlite_persists_across_reopen(tmp_path):
    path = tmp_path / "r.db"
    store = SqliteStore(path)
    store.put(KEY, RECORD)
    store.close()
    store2 = SqliteStore(path)
    assert store2.get(KEY) == RECORD
    store2.close()


def test_open_store_dispatch(tmp_path):
    assert isinstance(ResultCache.open(tmp_path / "dir"), DirectoryStore)
    assert isinstance(ResultCache.open(f"sqlite:{tmp_path}/a.db"), SqliteStore)
    assert isinstance(ResultCache.open(str(tmp_path / "b.db")), SqliteStore)
    assert isinstance(ResultCache.open("mem:"), MemoryStore)


def test_check_key_accepts_real_hashes():
    from repro.campaign.spec import trial_hash

    h = trial_hash({"workload": "pingpong"})
    assert check_key(h) == h


def test_cache_open_url_shares_backing(tmp_path):
    for url in (str(tmp_path / "dir"), f"sqlite:{tmp_path}/c.db"):
        writer = ResultCache.open(url)
        writer.put(KEY, RECORD)
        reader = ResultCache.open(url)
        assert reader.get(KEY) == RECORD
        writer.close()
        reader.close()


def test_cache_directory_compat(tmp_path):
    """A plain path opens a directory store: one ``<key>.json`` file
    per record under ``root``."""
    cache = ResultCache.open(tmp_path / "results")
    cache.put(KEY, RECORD)
    assert cache.path(KEY).exists()
    assert cache.root == tmp_path / "results"


def test_get_and_put_are_defined_once_on_the_base(store):
    """Every backend reads and writes through ``ResultCache.get`` and
    ``ResultCache.put`` themselves, the entry points the host-time
    tracer wraps, and stores the bytes the campaign stack always has:
    ``indent=2`` JSON files, ``json.dumps`` text otherwise."""
    for name in ("get", "put"):
        assert name in ResultCache.__dict__
        assert not any(
            name in cls.__dict__
            for cls in type(store).__mro__ if cls is not ResultCache
        )
    store.put(KEY, RECORD)
    if isinstance(store, DirectoryStore):
        assert store.path(KEY).read_text() == json.dumps(RECORD, indent=2) + "\n"
    elif isinstance(store, SqliteStore):
        row = store._execute("SELECT payload FROM results").fetchone()
        assert row[0] == json.dumps(RECORD)
    else:
        assert store._data[KEY] == json.dumps(RECORD)
