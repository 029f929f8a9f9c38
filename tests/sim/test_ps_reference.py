"""Differential test: ProcessorSharing against the per-job reference.

Both servers get the same random arrivals (same-instant arrivals, zero
work, equal work and 1-ULP neighbours included) on separate engines,
and every completion must come at exactly the same simulated time
(``==``, not approximately) and in the same order.  Sim outputs are
checked byte-for-byte against golden files elsewhere, so a server that
is only approximately equal is wrong.

A virtual-time formulation (one virtual clock, each job completing at
its arrival tag plus its work) fails this test: it rounds completion
times differently in their last bits.

The server's two event-free forms are checked against the reference's
events as well: a group of requests counting one shared ``Join`` down
must complete when an ``AllOf`` of the reference's events does, and a
detached (background) job must leave the server at the instant the
reference's unwaited job does.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, Engine, ProcessorSharing
from repro.sim.events import Join

from .reference_ps import ReferenceProcessorSharing

_BASE = (1e-9, 0.3, 1.0, 2.5, 64.0 * 1024, 3.3e6)


@st.composite
def _works(draw):
    kind = draw(st.sampled_from(["zero", "base", "up", "down", "any"]))
    if kind == "zero":
        return 0.0
    if kind == "any":
        return draw(st.floats(min_value=1e-9, max_value=1e7))
    base = draw(st.sampled_from(_BASE))
    if kind == "up":
        return math.nextafter(base, math.inf)
    if kind == "down":
        return math.nextafter(base, 0.0)
    return base


_gaps = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-9, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=3.0),
)

_rates = st.one_of(
    st.sampled_from([1.0, 0.7, 6.4e9]),
    st.floats(min_value=1e-3, max_value=1e10),
)


def _completions(server_cls, rate, arrivals):
    """``(job index, completion time, event value)`` in completion order."""
    eng = Engine()
    server = server_cls(eng, rate=rate, name="ps")
    done = []

    def arrive(index, work):
        event = server.request(work)
        event.add_callback(lambda ev: done.append((index, eng.now, ev.value)))

    at = 0.0
    for index, (gap, work) in enumerate(arrivals):
        at += gap
        eng.schedule(at, arrive, index, work)
    eng.run()
    assert len(done) == len(arrivals)
    return done


@settings(max_examples=400, deadline=None)
# A lone job completes, then a new one arrives on the idle server.
@example(rate=1.0, arrivals=[(0.0, 1.0), (2.0, 1.0)])
# An arrival at exactly the lone job's completion instant.
@example(rate=0.7, arrivals=[(0.0, 1.0), (1.0 / 0.7, 2.5)])
# Two back-to-back lone jobs: the second arrives one ULP after the first ends.
@example(rate=1.0, arrivals=[(0.0, 0.3), (math.nextafter(0.3, math.inf), 0.3)])
@given(
    rate=_rates,
    arrivals=st.lists(st.tuples(_gaps, _works()), min_size=1, max_size=12),
)
def test_processor_sharing_matches_reference_exactly(rate, arrivals):
    got = _completions(ProcessorSharing, rate, arrivals)
    want = _completions(ReferenceProcessorSharing, rate, arrivals)
    assert got == want


#: How an arrival enters the server: its own event, one Join shared by
#: a group of requests, or detached (nobody waits).
_kinds = st.sampled_from(["event", "join", "detached"])


def _trace(server_cls, rate, arrivals):
    """Completions of waited arrivals, plus ``(now, load)`` after every
    engine step, so background jobs are seen leaving the server."""
    eng = Engine()
    server = server_cls(eng, rate=rate, name="ps")
    reference = server_cls is ReferenceProcessorSharing
    done = []

    def arrive(index, kind, works):
        if kind == "event":
            waited = server.request(works[0])
        elif kind == "detached":
            if reference:
                server.request(works[0])
            else:
                assert server.request(works[0], detached=True) is None
            return
        elif reference:
            waited = AllOf(eng, [server.request(w) for w in works])
        else:
            waited = Join(eng, len(works))
            for w in works:
                assert server.request(w, waited) is None
        waited.add_callback(lambda ev: done.append((index, eng.now)))

    at = 0.0
    for index, (gap, kind, works) in enumerate(arrivals):
        at += gap
        eng.schedule(at, arrive, index, kind, works)
    loads = []
    while eng.step():
        loads.append((eng.now, server.load))
    assert server.load == 0
    return done, loads


@settings(max_examples=300, deadline=None)
# A join whose members are all zero work completes at once.
@example(rate=1.0, arrivals=[(0.0, "join", [0.0, 0.0]), (0.0, "event", [1.0])])
# A background job slows a joined group, then leaves first.
@example(rate=1.0, arrivals=[(0.0, "detached", [0.5]), (0.0, "join", [1.0, 2.0])])
@given(
    rate=_rates,
    arrivals=st.lists(
        st.tuples(_gaps, _kinds, st.lists(_works(), min_size=1, max_size=3)),
        min_size=1,
        max_size=10,
    ),
)
def test_joined_and_detached_jobs_match_reference_exactly(rate, arrivals):
    arrivals = [
        (gap, kind, works if kind == "join" else works[:1])
        for gap, kind, works in arrivals
    ]
    got = _trace(ProcessorSharing, rate, arrivals)
    want = _trace(ReferenceProcessorSharing, rate, arrivals)
    assert got == want
