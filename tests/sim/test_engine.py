"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_schedule_runs_in_time_order():
    eng = Engine()
    seen = []
    eng.schedule(2.0, lambda: seen.append(("b", eng.now)))
    eng.schedule(1.0, lambda: seen.append(("a", eng.now)))
    eng.schedule(3.0, lambda: seen.append(("c", eng.now)))
    eng.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert eng.now == 3.0


def test_same_time_events_run_in_scheduling_order():
    eng = Engine()
    seen = []
    for i in range(10):
        eng.schedule(1.0, seen.append, i)
    eng.run()
    assert seen == list(range(10))


def test_cancelled_handle_does_not_run():
    eng = Engine()
    seen = []
    handle = eng.schedule(1.0, seen.append, "x")
    handle.cancel()
    eng.schedule(2.0, seen.append, "y")
    eng.run()
    assert seen == ["y"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_delay_rejected_naming_the_callback(delay):
    eng = Engine()

    def wake_rank3():
        pass

    with pytest.raises(SimulationError, match=rf"wake_rank3.*delay={delay}"):
        eng.schedule(delay, wake_rank3)
    assert eng.run() == 0.0


def test_run_until_in_the_past_rejected():
    eng = Engine()
    eng.schedule(2.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError, match="before the current time"):
        eng.run(until=1.0)
    assert eng.now == 2.0


def test_run_until_stops_clock():
    eng = Engine()
    seen = []
    eng.schedule(1.0, seen.append, "a")
    eng.schedule(5.0, seen.append, "b")
    eng.run(until=2.0)
    assert seen == ["a"]
    assert eng.now == 2.0


def test_run_until_skips_cancelled_head_without_overshooting():
    eng = Engine()
    seen = []
    eng.schedule(1.0, seen.append, "cancelled").cancel()
    eng.schedule(5.0, seen.append, "late")
    assert eng.run(until=2.0) == 2.0
    assert seen == []
    assert eng.run() == 5.0
    assert seen == ["late"]


def test_call_soon_defers_until_current_callback_ends():
    eng = Engine()
    seen = []

    def outer():
        eng.call_soon(seen.append, "inner")
        seen.append("outer")

    eng.schedule(1.0, outer)
    eng.run()
    assert seen == ["outer", "inner"]


def test_simple_process_timeout():
    eng = Engine()
    log = []

    def proc():
        log.append(eng.now)
        yield 1.5
        log.append(eng.now)
        yield 0.5
        log.append(eng.now)
        return "done"

    p = eng.process(proc)
    eng.run()
    assert log == [0.0, 1.5, 2.0]
    assert p.result == "done"
    assert p.finished


def test_process_subroutine_call_returns_value():
    eng = Engine()

    def helper(x):
        yield 1.0
        return x * 2

    def main():
        a = yield helper(10)
        b = yield helper(a)
        return a + b

    results = eng.run_processes([main])
    assert results == [60]
    assert eng.now == 2.0


def test_process_join_receives_return_value():
    eng = Engine()

    def worker():
        yield 3.0
        return 42

    def boss():
        w = eng.process(worker)
        value = yield w
        return value + 1

    results = eng.run_processes([boss])
    assert results[0] == 43


def test_event_wakes_waiter_with_value():
    eng = Engine()
    evt = eng.event("signal")
    log = []

    def waiter():
        value = yield evt
        log.append((eng.now, value))

    def firer():
        yield 2.0
        evt.succeed("payload")

    eng.run_processes([waiter, firer])
    assert log == [(2.0, "payload")]


def test_event_failure_raises_in_waiter():
    eng = Engine()
    evt = eng.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield evt
        return "survived"

    def firer():
        yield 1.0
        evt.fail(ValueError("boom"))

    results = eng.run_processes([waiter, firer])
    assert results[0] == "survived"


def test_event_double_trigger_is_error():
    eng = Engine()
    evt = eng.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_uncaught_process_exception_propagates_to_run():
    eng = Engine()

    def bad():
        yield 1.0
        raise RuntimeError("kaboom")

    eng.process(bad)
    with pytest.raises(RuntimeError, match="kaboom"):
        eng.run()


def test_exception_propagates_through_generator_stack():
    eng = Engine()

    def inner():
        yield 1.0
        raise KeyError("deep")

    def outer():
        try:
            yield inner()
        except KeyError:
            return "caught"

    results = eng.run_processes([outer])
    assert results == ["caught"]


def test_deadlock_detection_names_blocked_processes():
    eng = Engine()
    evt = eng.event()

    def stuck():
        yield evt

    eng.process(stuck, name="stuck-proc")
    with pytest.raises(DeadlockError) as excinfo:
        eng.run()
    assert "stuck-proc" in excinfo.value.blocked


def test_yield_bad_value_raises():
    eng = Engine()

    def bad():
        yield "not-a-waitable"

    eng.process(bad)
    with pytest.raises(SimulationError, match="unsupported"):
        eng.run()


def test_already_triggered_event_resumes_immediately():
    eng = Engine()
    evt = eng.event()
    evt.succeed(7)

    def proc():
        value = yield evt
        return (eng.now, value)

    results = eng.run_processes([proc])
    assert results == [(0.0, 7)]


def test_interrupt_throws_into_process():
    eng = Engine()

    def sleeper():
        try:
            yield 100.0
        except SimulationError:
            return "interrupted"
        return "slept"

    p = eng.process(sleeper)

    def killer():
        yield 1.0
        p.interrupt()

    eng.process(killer)
    eng.run()
    assert p.result == "interrupted"
    assert eng.now < 100.0


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        log = []

        def proc(i):
            yield 0.5 * (i + 1)
            log.append(i)
            yield 0.25
            log.append(10 + i)

        for i in range(5):
            eng.process(proc, i, name=f"p{i}")
        eng.run()
        return log

    assert build() == build()


# ---------------------------------------------------------------- watchdog
def test_event_budget_raises_livelock_with_diagnostics():
    from repro.errors import LivelockError

    eng = Engine()

    def spinner():
        while True:
            yield 1e-3

    eng.process(spinner, name="spinner")
    with pytest.raises(LivelockError) as err:
        eng.run(max_events=50)
    exc = err.value
    assert exc.events > 50
    assert "spinner" in exc.progress
    assert "spinner" in str(exc)
    assert "event budget" in str(exc)


def test_sim_time_budget_raises_livelock():
    from repro.errors import LivelockError

    eng = Engine(max_sim_time=1.0)  # constructor default is honoured

    def spinner():
        while True:
            yield 0.1

    eng.process(spinner, name="s")
    with pytest.raises(LivelockError) as err:
        eng.run()
    assert "sim-time budget" in str(err.value)
    assert err.value.now > 1.0


def test_budgets_do_not_disturb_a_converging_run():
    eng = Engine(max_events=100_000, max_sim_time=1e6)

    def worker():
        for _ in range(10):
            yield 0.01
        return "done"

    p = eng.process(worker)
    eng.run()
    assert p.result == "done"


def test_watchdog_reports_stalest_process_first():
    from repro.errors import LivelockError

    eng = Engine()
    parked = eng.event("never")

    def stale():
        yield parked  # parks forever at t=0

    def busy():
        while True:
            yield 1e-3

    eng.process(stale, name="stale")
    eng.process(busy, name="busy")
    with pytest.raises(LivelockError) as err:
        eng.run(max_events=200)
    # The message lists processes stalest-first for diagnosability.
    msg = str(err.value)
    assert msg.index("stale") < msg.index("busy")


def test_interrupt_then_repark_on_same_event_resumes_once():
    """The wakeup registered before the interrupt is stale: only the
    second park on the same event may resume the process."""
    eng = Engine()
    ev = eng.event()
    log = []

    def victim():
        try:
            yield ev
        except SimulationError:
            log.append("interrupted")
        log.append((yield ev))
        yield 5.0
        log.append(eng.now)

    def driver():
        yield 1.0
        proc.interrupt()
        yield 1.0
        ev.succeed("v")

    proc = eng.process(victim, name="victim")
    eng.process(driver, name="driver")
    eng.run()
    assert log == ["interrupted", "v", 7.0]


@pytest.mark.parametrize("budgets", [{}, {"max_events": 10**6, "max_sim_time": 1e6}])
def test_run_raises_deadlock_and_failures_with_and_without_budgets(budgets):
    eng = Engine()

    def stuck():
        yield eng.event()

    eng.process(stuck, name="stuck")
    with pytest.raises(DeadlockError):
        eng.run(**budgets)

    eng = Engine()

    def boom():
        yield 1.0
        raise ValueError("boom")

    eng.process(boom, name="boom")
    with pytest.raises(ValueError, match="boom"):
        eng.run(**budgets)
