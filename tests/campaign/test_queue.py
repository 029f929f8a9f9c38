"""Lease queue: order, tokens, backoff, quarantine, requeue, expiry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.queue import STATUSES, LeaseQueue, TrialState
from repro.errors import CampaignError, LeaseExpired

HASHES = ["aa" * 8, "bb" * 8, "cc" * 8]


def make_queue(tmp_path, hashes=None, **kwargs):
    kwargs.setdefault("retry_budget", 3)
    kwargs.setdefault("backoff_base", 0.05)
    return LeaseQueue(hashes or HASHES, **kwargs)


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
        q.requeue(lease)
    assert q.states[HASHES[0]].fails == 0
    assert q.pending == HASHES[:1]


def test_stale_lease_raises_lease_expired(tmp_path):
    q = make_queue(tmp_path)
    lease = q.lease("w0", now=0.0, ttl=60.0)
    q.requeue(lease)
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


def test_complete_external_is_idempotent_and_keeps_quarantine(tmp_path):
    q = make_queue(tmp_path, hashes=HASHES[:2], retry_budget=1)
    q.complete_external(HASHES[0])
    q.complete_external(HASHES[0])
    assert q.done == HASHES[:1]
    assert q.fail(q.lease("w0", now=0.0, ttl=60.0), "boom", now=0.0) == "quarantined"
    q.complete_external(HASHES[1])
    assert q.quarantined == HASHES[1:2]


def test_default_trial_state_is_pending():
    state = TrialState()
    assert state.status == "pending"
    assert state.attempts == 0 and state.fails == 0
    assert state.token is None and state.worker is None


# ----------------------------------------------------------- properties
#: One queue call: (operation, trial index, time step).  complete, fail
#: and requeue use the last lease granted for the trial, which is stale
#: once that lease ended, so stale tokens are exercised as well as live
#: ones.
calls = st.lists(
    st.tuples(
        st.sampled_from(
            ["lease", "complete", "fail", "requeue", "expire",
             "complete_external"]
        ),
        st.integers(min_value=0, max_value=len(HASHES) - 1),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    ),
    max_size=60,
)


def _drive(steps, retry_budget):
    """Apply ``steps`` to a fresh queue, yielding (op, trial, copies of
    the states before the call, the live states after it)."""
    q = LeaseQueue(HASHES, retry_budget=retry_budget, backoff_base=0.1)
    last: dict[str, object] = {}
    now = 0.0
    for op, i, dt in steps:
        now += dt
        h = HASHES[i]
        before = {k: TrialState(**vars(s)) for k, s in q.states.items()}
        if op == "lease":
            lease = q.lease("w", now=now, ttl=1.0)
            if lease is not None:
                last[lease.trial] = lease
                h = lease.trial
        elif op == "expire":
            q.expire(now)
        elif op == "complete_external":
            q.complete_external(h)
        elif h in last:
            try:
                if op == "complete":
                    q.complete(last[h])
                elif op == "fail":
                    q.fail(last[h], "boom", now=now)
                else:
                    q.requeue(last[h])
            except LeaseExpired:
                pass
        yield op, h, before, q.states


@settings(max_examples=200, deadline=None)
@given(calls, st.integers(min_value=1, max_value=3))
def test_terminal_states_are_absorbing(steps, retry_budget):
    """Once done or quarantined, no later call moves a trial."""
    for _op, _h, before, after in _drive(steps, retry_budget):
        for k, state in after.items():
            assert state.status in STATUSES
            if before[k].status in ("done", "quarantined"):
                assert state.status == before[k].status, (k, before[k], state)


@settings(max_examples=200, deadline=None)
@given(calls, st.integers(min_value=1, max_value=3))
def test_only_failures_spend_the_retry_budget(steps, retry_budget):
    """Quarantine comes after exactly ``retry_budget`` failures, and
    requeue, expire and every other call leave ``fails`` alone."""
    for op, h, before, after in _drive(steps, retry_budget):
        for k, state in after.items():
            # A leased trial's last lease is its live one, so a fail
            # call on it counts; on any other status it is stale.
            live_fail = op == "fail" and k == h and before[k].status == "leased"
            assert state.fails - before[k].fails == int(live_fail)
            assert (state.status == "quarantined") == (
                state.fails == retry_budget
            )
