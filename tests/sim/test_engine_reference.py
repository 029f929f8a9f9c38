"""Differential test: ``Engine`` against the pure-heap reference.

``Engine`` keeps zero-delay callbacks in a FIFO beside its heap and
merges the two by ``(time, seq)``.  Both engines get the same random
program here: callbacks that schedule more callbacks (zero delays,
delays so small that ``now + delay == now``, ordinary ones), callbacks
that cancel pending handles (zero-delay ones included), and a run cut
into ``run(until=...)`` slices.  Every callback must run at the same
``now`` and in the same order, and every ``run`` must return the same
time.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Event

from .reference_engine import ReferenceEngine

# 1e-17 vanishes against a clock past ~0.1; 5e-324 against any clock
# past zero.
_delays = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-17, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0),
)


@st.composite
def _programs(draw):
    """Nodes ``(delay, parent, canceller, via_event)``.

    A node with ``parent == -1`` is scheduled before the run; otherwise
    node ``parent`` schedules it when it runs, directly or (with
    ``via_event``) by triggering an event it waits on.  When node
    ``canceller`` runs, it cancels this node's handle if it has one.
    """
    n = draw(st.integers(1, 24))
    nodes = []
    for i in range(n):
        parent = draw(st.integers(-1, i - 1))
        canceller = draw(st.one_of(st.none(), st.integers(0, n - 1)))
        via_event = parent >= 0 and draw(st.booleans())
        nodes.append((draw(_delays), parent, canceller, via_event))
    cuts = draw(st.lists(st.floats(min_value=0.0, max_value=1.5), max_size=3))
    return nodes, cuts


def _trace(engine_cls, nodes, cuts):
    eng = engine_cls()
    seen = []
    handles = {}

    def schedule(j):
        delay, _, _, via_event = nodes[j]
        if via_event:
            # Event delivery: the waiter is woken by a deferred callback.
            event = Event(eng)
            event.add_callback(lambda ev: run_node(j))
            handles[j] = eng.schedule(delay, event.succeed)
        else:
            handles[j] = eng.schedule(delay, run_node, j)

    def run_node(i):
        seen.append((i, eng.now))
        for j, (_, parent, _, _) in enumerate(nodes):
            if parent == i:
                schedule(j)
        for j, (_, _, canceller, _) in enumerate(nodes):
            if canceller == i and j in handles:
                handles[j].cancel()

    for j, (_, parent, _, _) in enumerate(nodes):
        if parent == -1:
            schedule(j)
    returned = []
    until = 0.0
    for cut in cuts:
        until += cut
        returned.append(eng.run(until=until))
    returned.append(eng.run())
    return seen, returned, eng.events_executed


@settings(max_examples=400, deadline=None)
# Zero-delay callbacks behind a same-instant heap entry scheduled first.
@example(program=([(0.5, -1, None, False), (0.5, -1, None, False),
                   (0.0, 0, None, False), (0.0, 2, None, True)], []))
# A cancelled zero-delay head while run(until=...) looks for the next time.
@example(program=([(0.0, -1, None, False), (0.0, -1, 0, False),
                   (1.0, -1, None, False)], [0.5]))
# A delay that vanishes against the clock: now + 1e-17 == now.
@example(program=([(1.0, -1, None, False), (1e-17, 0, None, False),
                   (0.0, 0, None, False)], []))
@given(program=_programs())
def test_engine_matches_pure_heap_reference(program):
    nodes, cuts = program
    assert _trace(Engine, nodes, cuts) == _trace(ReferenceEngine, nodes, cuts)


def test_vanishing_delay_sorts_by_sequence_with_zero_delays():
    """``now + delay == now``: the heap entry has the same time as a
    FIFO entry, so the earlier schedule call runs first."""
    for engine_cls in (Engine, ReferenceEngine):
        eng = engine_cls()
        seen = []

        def at_one():
            eng.schedule(1e-17, seen.append, "tiny")
            eng.schedule(0.0, seen.append, "zero")
            assert eng.now + 1e-17 == eng.now

        eng.schedule(1.0, at_one)
        eng.run()
        assert seen == ["tiny", "zero"], engine_cls
