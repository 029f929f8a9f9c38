"""Tests for composite events (AllOf/AnyOf) and timers."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Engine
from repro.sim.events import Join, Timeout


def test_allof_gathers_values_in_order():
    eng = Engine()
    e1, e2, e3 = eng.event(), eng.event(), eng.event()

    def waiter():
        values = yield AllOf(eng, [e1, e2, e3])
        return values

    def firer():
        yield 1.0
        e2.succeed("b")
        yield 1.0
        e1.succeed("a")
        yield 1.0
        e3.succeed("c")

    results = eng.run_processes([waiter(), firer()])
    assert results[0] == ["a", "b", "c"]
    assert eng.now == 3.0


def test_allof_fails_on_first_child_failure():
    eng = Engine()
    e1, e2 = eng.event(), eng.event()

    def waiter():
        try:
            yield AllOf(eng, [e1, e2])
        except ValueError as exc:
            return str(exc)

    def firer():
        yield 1.0
        e1.fail(ValueError("boom"))
        yield 1.0
        e2.succeed()

    results = eng.run_processes([waiter(), firer()])
    assert results[0] == "boom"


def test_anyof_returns_winner_index_and_value():
    eng = Engine()
    e1, e2 = eng.event(), eng.event()

    def waiter():
        return (yield AnyOf(eng, [e1, e2]))

    def firer():
        yield 2.0
        e2.succeed("late")
        # e1 never fires; AnyOf must already have resolved.

    results = eng.run_processes([waiter(), firer()])
    assert results[0] == (1, "late")


def test_anyof_with_pretriggered_child():
    eng = Engine()
    e1 = eng.event()
    e1.succeed("now")
    e2 = eng.event()

    def waiter():
        return (yield AnyOf(eng, [e1, e2]))

    assert eng.run_processes([waiter()]) == [(0, "now")]


def test_composites_reject_empty():
    eng = Engine()
    with pytest.raises(SimulationError):
        AllOf(eng, [])
    with pytest.raises(SimulationError):
        AnyOf(eng, [])


def test_engine_timer_is_event():
    eng = Engine()

    def waiter():
        value = yield AllOf(eng, [eng.timer(1.0, "x"), eng.timer(2.0, "y")])
        return value, eng.now

    results = eng.run_processes([waiter()])
    assert results[0] == (["x", "y"], 2.0)


def test_timeout_rejects_negative():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_timeout_carries_value():
    eng = Engine()

    def proc():
        got = yield Timeout(0.5, value="payload")
        return got

    assert eng.run_processes([proc()]) == ["payload"]


def test_event_fail_requires_exception():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.event().fail("not an exception")


# ------------------------------------------- synchronous composite fan-in
def test_anyof_picks_first_child_triggered_in_one_callback():
    eng = Engine()
    e0, e1, e2 = eng.event(), eng.event(), eng.event()

    def waiter():
        return (yield AnyOf(eng, [e0, e1, e2]))

    def firer():
        yield 1.0
        e2.succeed("c")
        e0.succeed("a")
        e1.succeed("b")

    assert eng.run_processes([waiter(), firer()])[0] == (2, "c")


def test_anyof_pretriggered_children_win_in_index_order():
    eng = Engine()
    pending, first, second = eng.event(), eng.event(), eng.event()

    def waiter():
        second.succeed("y")
        first.succeed("x")
        composite = AnyOf(eng, [pending, first, second])
        pending.succeed("z")  # same callback, but after construction
        return (yield composite)

    assert eng.run_processes([waiter()]) == [(1, "x")]


def test_allof_fails_exactly_once_and_ignores_later_children():
    eng = Engine()
    e0, e1, e2 = eng.event(), eng.event(), eng.event()
    composite = AllOf(eng, [e0, e1, e2])
    wakeups = []
    composite.add_callback(wakeups.append)

    def firer():
        yield 1.0
        e1.fail(ValueError("first"))
        e0.fail(ValueError("second"))
        yield 1.0
        e2.succeed("late")

    eng.run_processes([firer()])
    assert wakeups == [composite]
    assert not composite.ok
    assert str(composite.value) == "first"


def test_nested_composites_resolve():
    eng = Engine()
    a, b, c, d = (eng.event() for _ in range(4))

    def waiter():
        inner = [AnyOf(eng, [a, b]), AnyOf(eng, [c, d])]
        return (yield AllOf(eng, inner)), eng.now

    def firer():
        yield 1.0
        b.succeed("b")
        yield 1.0
        c.succeed("c")
        a.succeed("a")
        d.succeed("d")

    result = eng.run_processes([waiter(), firer()])[0]
    assert result == ([(1, "b"), (0, "c")], 2.0)


def test_process_on_composite_is_woken_deferred():
    """The composite updates inside the child's ``succeed()``; the
    process parked on it runs only after the triggering callback."""
    eng = Engine()
    child = eng.event()
    log = []

    def waiter():
        yield AllOf(eng, [child])
        log.append("waiter")

    def firer():
        yield 1.0
        child.succeed()
        log.append("after succeed")

    eng.run_processes([waiter(), firer()])
    assert log == ["after succeed", "waiter"]


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_timeout_rejected(delay):
    with pytest.raises(SimulationError, match="not a finite delay"):
        Timeout(delay)


def test_process_yielding_nan_fails_instead_of_poisoning_the_clock():
    eng = Engine()

    def proc():
        yield float("nan")

    eng.process(proc)
    with pytest.raises(SimulationError, match="not a finite delay"):
        eng.run()
    assert eng.now == 0.0


def test_join_succeeds_on_the_last_arrival():
    eng = Engine()
    join = Join(eng, 2)

    def waiter():
        value = yield join
        return (eng.now, value)

    def parts():
        yield 1.0
        join.arrive("ignored")
        yield 1.0
        join.arrive()

    assert eng.run_processes([waiter, parts]) == [(2.0, None), None]


def test_join_rejects_bad_counts_and_extra_arrivals():
    eng = Engine()
    with pytest.raises(SimulationError):
        Join(eng, 0)
    join = Join(eng, 1)
    join.arrive()
    with pytest.raises(SimulationError, match="more arrivals"):
        join.arrive()
