"""Durable lease queue: journal replay, backoff, quarantine, healing."""

import json

import pytest

from repro.campaign.queue import (
    LeaseQueue,
    append_event,
    replay_lines,
)
from repro.errors import CampaignError, LeaseExpired

HASHES = ["aa" * 8, "bb" * 8, "cc" * 8]


def make_queue(tmp_path, hashes=None, **kwargs):
    kwargs.setdefault("retry_budget", 3)
    kwargs.setdefault("backoff_base", 0.05)
    return LeaseQueue(tmp_path / "journal.jsonl", hashes or HASHES, **kwargs)


def test_leases_follow_spec_order(tmp_path):
    q = make_queue(tmp_path)
    granted = [q.lease(f"w{i}", now=0.0, ttl=60.0) for i in range(3)]
    assert [l.trial for l in granted] == HASHES
    assert q.lease("w3", now=0.0, ttl=60.0) is None  # nothing pending
    assert q.leased == HASHES and not q.pending


def test_complete_settles_and_tokens_are_unique(tmp_path):
    q = make_queue(tmp_path)
    a = q.lease("w0", now=0.0, ttl=60.0)
    b = q.lease("w1", now=0.0, ttl=60.0)
    assert a.token != b.token
    q.complete(a)
    q.complete(b)
    assert q.done == HASHES[:2] and q.pending == HASHES[2:]
    assert not q.all_settled
    q.complete(q.lease("w0", now=0.0, ttl=60.0))
    assert q.all_settled


def test_fail_backs_off_then_quarantines_after_exact_budget(tmp_path):
    q = make_queue(tmp_path, hashes=HASHES[:1], retry_budget=3,
                   backoff_base=1.0)
    outcomes = []
    now = 0.0
    for attempt in range(3):
        lease = q.lease("w0", now=now, ttl=60.0)
        assert lease is not None and lease.attempt == attempt + 1
        outcomes.append(q.fail(lease, "boom", now=now))
        # Exponential backoff: the trial is invisible until not_before.
        if outcomes[-1] == "retry":
            state = q.states[HASHES[0]]
            assert state.not_before == now + 1.0 * 2 ** attempt
            assert q.lease("w0", now=now, ttl=60.0) is None
            now = state.not_before
    assert outcomes == ["retry", "retry", "quarantined"]
    assert q.quarantined == HASHES[:1]
    assert q.lease("w0", now=1e9, ttl=60.0) is None  # never re-granted
    assert q.all_settled
    assert q.states[HASHES[0]].error == "boom"


def test_requeue_does_not_consume_retry_budget(tmp_path):
    q = make_queue(tmp_path, hashes=HASHES[:1], retry_budget=2)
    for _ in range(10):  # far more kills than the budget allows failures
        lease = q.lease("w0", now=0.0, ttl=60.0)
        q.requeue(lease, reason="worker-death")
    assert q.states[HASHES[0]].fails == 0
    assert q.pending == HASHES[:1]


def test_stale_lease_raises_lease_expired(tmp_path):
    q = make_queue(tmp_path)
    lease = q.lease("w0", now=0.0, ttl=60.0)
    q.requeue(lease, reason="presumed-dead")
    fresh = q.lease("w1", now=0.0, ttl=60.0)
    assert fresh.trial == lease.trial and fresh.token != lease.token
    with pytest.raises(LeaseExpired):
        q.complete(lease)  # the zombie's report arrives late
    with pytest.raises(LeaseExpired):
        q.fail(lease, "zombie", now=0.0)
    q.complete(fresh)  # the live lease is unaffected
    assert q.done == [lease.trial]


def test_expire_requeues_only_past_deadline(tmp_path):
    q = make_queue(tmp_path)
    a = q.lease("w0", now=0.0, ttl=10.0)
    q.lease("w1", now=0.0, ttl=100.0)
    assert q.expire(now=5.0) == []
    assert q.expire(now=11.0) == [a.trial]
    assert a.trial in q.pending
    assert len(q.leased) == 1


def test_replay_rebuilds_exact_state(tmp_path):
    q = make_queue(tmp_path, retry_budget=2, backoff_base=1.0)
    done = q.lease("w0", now=0.0, ttl=60.0)
    q.complete(done)
    failed = q.lease("w0", now=0.0, ttl=60.0)
    q.fail(failed, "flaky", now=7.0)
    leased = q.lease("w0", now=0.0, ttl=60.0)

    recovered = make_queue(tmp_path, retry_budget=2, backoff_base=1.0)
    assert recovered.done == [done.trial]
    assert recovered.leased == [leased.trial]
    assert recovered.pending == [failed.trial]
    state = recovered.states[failed.trial]
    assert state.fails == 1 and state.not_before == 8.0  # 7 + 1.0 * 2**0
    # Fresh tokens never collide with replayed ones.
    fresh = recovered.lease("w1", now=8.0, ttl=60.0)
    assert fresh.token > leased.token


def test_replay_skips_torn_and_garbage_lines(tmp_path):
    path = tmp_path / "journal.jsonl"
    append_event(path, {"ev": "lease", "hash": HASHES[0], "token": 1,
                        "attempt": 1, "worker": "w0", "deadline": 60.0})
    with open(path, "a") as fh:
        fh.write('{"ev": "complete", "hash": "' + HASHES[0])  # torn append
    q = make_queue(tmp_path, hashes=HASHES[:1])
    assert q.counters["torn_lines"] == 1
    assert q.leased == HASHES[:1]  # the torn complete was lost, lease stands
    # heal_tail() ran on open: the next append starts on a fresh line.
    append_event(path, {"ev": "complete", "hash": HASHES[0]})
    states, counters = replay_lines(path.read_text().splitlines())
    assert counters["torn_lines"] == 1
    assert states[HASHES[0]].status == "done"


def test_foreign_hashes_replay_inert(tmp_path):
    path = tmp_path / "journal.jsonl"
    append_event(path, {"ev": "lease", "hash": "ff" * 8, "token": 9,
                        "attempt": 1, "worker": "w0", "deadline": 60.0})
    append_event(path, {"ev": "wat", "hash": HASHES[0]})  # unknown kind
    q = make_queue(tmp_path)
    assert "ff" * 8 not in q.states
    assert q.pending == HASHES


def test_append_event_writes_one_durable_line(tmp_path):
    path = tmp_path / "journal.jsonl"
    append_event(path, {"ev": "begin", "name": "x"})
    append_event(path, {"ev": "requeue", "hash": HASHES[0]})
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["ev"] for line in lines)


def test_constructor_validates_knobs(tmp_path):
    with pytest.raises(CampaignError):
        make_queue(tmp_path, retry_budget=0)
    with pytest.raises(CampaignError):
        make_queue(tmp_path, backoff_base=-1.0)


def test_duplicate_hashes_collapse(tmp_path):
    q = make_queue(tmp_path, hashes=[HASHES[0], HASHES[0], HASHES[1]])
    assert q.order == HASHES[:2]


def test_lease_dataclass_is_frozen(tmp_path):
    q = make_queue(tmp_path)
    lease = q.lease("w0", now=0.0, ttl=60.0)
    with pytest.raises(Exception):
        lease.token = 999


def test_describe_summarizes_counts(tmp_path):
    q = make_queue(tmp_path)
    q.complete(q.lease("w0", now=0.0, ttl=60.0))
    q.lease("w1", now=0.0, ttl=60.0)
    assert q.describe() == (
        "queue: 1 done | 1 leased | 1 pending | 0 quarantined"
    )
