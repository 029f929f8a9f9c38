"""Property tests: any journal replays, consistently, to legal states.

The journal is a submission's only source of truth, and writers die at
arbitrary points — so the replay must be *total* (no event sequence,
however mangled, may raise) and the states it produces must respect
the lease state machine's invariants.  hypothesis generates the
adversarial interleavings a hand-written kill test never would.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.queue import STATUSES, TrialState, apply_event, replay_lines

HASHES = ["aa" * 8, "bb" * 8, "cc" * 8]

events = st.fixed_dictionaries(
    {
        "ev": st.sampled_from(
            ["begin", "lease", "complete", "fail", "requeue",
             "quarantine", "unknown-kind"]
        ),
        "hash": st.sampled_from(HASHES + ["ff" * 8]),
    },
    optional={
        "token": st.integers(min_value=0, max_value=10),
        "worker": st.sampled_from(["w0.1", "w1.3"]),
        "attempt": st.integers(min_value=1, max_value=5),
        "deadline": st.floats(0, 100, allow_nan=False),
        "not_before": st.floats(0, 100, allow_nan=False),
        "error": st.text(max_size=8),
        "reason": st.sampled_from(["worker-death", "deadline"]),
    },
)

lines = st.lists(
    st.one_of(
        events.map(lambda e: json.dumps(e, sort_keys=True)),
        st.text(max_size=20),  # garbage / torn fragments
        st.just('{"ev": "lease", "hash":'),  # a torn real event
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(lines)
def test_any_interleaving_replays_without_raising(raw):
    states, counters = replay_lines(raw)
    assert counters["events"] + counters["torn_lines"] <= len(raw)
    for state in states.values():
        assert state.status in STATUSES
        assert state.attempts >= 0 and state.fails >= 0


@settings(max_examples=150, deadline=None)
@given(st.lists(events, max_size=40))
def test_replay_is_deterministic_and_incremental(evs):
    """Folding one event at a time equals replaying the whole journal."""
    raw = [json.dumps(e, sort_keys=True) for e in evs]
    whole, _ = replay_lines(raw)
    incremental = {}
    for e in evs:
        apply_event(incremental, e)
    assert incremental == whole
    # And replaying again gives the same answer (pure function).
    again, _ = replay_lines(raw)
    assert again == whole


@settings(max_examples=150, deadline=None)
@given(st.lists(events, max_size=40))
def test_terminal_states_are_absorbing(evs):
    """Once done or quarantined, no later event moves a trial."""
    states = {}
    frozen = {}
    for e in evs:
        apply_event(states, e)
        for h, s in states.items():
            if h in frozen:
                assert s.status == frozen[h], (
                    f"{h} left terminal state {frozen[h]} -> {s.status}"
                )
            elif s.status in ("done", "quarantined"):
                frozen[h] = s.status


@settings(max_examples=100, deadline=None)
@given(st.lists(events, max_size=30), st.integers(min_value=0, max_value=30))
def test_prefix_replay_is_a_valid_intermediate(evs, cut):
    """Any prefix (a crash point) replays to states the suffix extends."""
    raw = [json.dumps(e, sort_keys=True) for e in evs]
    prefix_states, _ = replay_lines(raw[:cut])
    for e in evs[cut:]:
        apply_event(prefix_states, e)
    whole, _ = replay_lines(raw)
    assert prefix_states == whole


def test_default_trial_state_is_pending():
    state = TrialState()
    assert state.status == "pending"
    assert state.attempts == 0 and state.fails == 0
    assert state.token is None and state.worker is None
