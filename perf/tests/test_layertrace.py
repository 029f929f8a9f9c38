"""The tracer's wrappers: generator protocol, exclusive time, rebinding."""

import sys

import pytest

from layertrace import Tracer
from repro.sim.engine import Engine


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_proxy_forwards_sends_throws_and_the_return_value():
    engine = Engine()
    tracer = Tracer()
    failing = engine.event()

    def body():
        got = yield engine.timeout(1.0, "tick")
        try:
            yield failing
        except ValueError as exc:
            caught = str(exc)
        return got, caught

    wrapped = tracer.wrap(body, "body")

    def parent():
        result = yield wrapped()
        return result

    def failer():
        yield engine.timeout(2.0)
        failing.fail(ValueError("boom"))

    proc = engine.process(parent())
    engine.process(failer())
    engine.run()
    assert proc.result == ("tick", "boom")
    assert engine.now == 2.0
    assert tracer.stat("body").calls == 1


def test_proxy_propagates_exceptions_and_interrupts():
    engine = Engine()
    tracer = Tracer()
    seen = []

    def raises():
        yield engine.timeout(1.0)
        raise KeyError("inner")

    def parks():
        try:
            yield engine.timeout(10.0)
        except RuntimeError as exc:
            seen.append(str(exc))
            return "interrupted"

    def parent():
        try:
            yield tracer.wrap(raises, "raises")()
        except KeyError:
            seen.append("caught")
        return (yield tracer.wrap(parks, "parks")())

    proc = engine.process(parent())
    engine.schedule(2.0, proc.interrupt, RuntimeError("stop"))
    engine.run()
    assert seen == ["caught", "stop"]
    assert proc.result == "interrupted"


def test_proxy_close_closes_the_inner_generator_and_keeps_its_name():
    closed = []

    def body():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    proxy = Tracer().wrap(body, "body")()
    assert proxy.__name__ == "body"
    assert next(proxy) == 1
    proxy.close()
    assert closed == [True]


def test_self_times_are_exclusive_and_sum_to_the_outer_total():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def advance(dt):
        clock.t += dt

    leaf = tracer.wrap(lambda: advance(3.0), "leaf")

    def gen():
        advance(0.5)
        leaf()
        yield
        advance(0.25)

    step = tracer.wrap(gen, "gen")

    def mid():
        advance(1.0)
        leaf()
        for _ in step():
            advance(10.0)  # between yields: charged to mid, not gen
    mid = tracer.wrap(mid, "mid")

    def outer():
        advance(2.0)
        mid()

    tracer.wrap(outer, "outer")()
    self_s = {name: stat.self_s for name, stat in tracer.stats.items()}
    assert self_s == {"leaf": 6.0, "gen": 0.75, "mid": 11.0, "outer": 2.0}
    assert sum(self_s.values()) == clock.t
    assert tracer.stat("leaf").calls == 2


def test_install_rebinds_every_importer_and_uninstall_restores():
    import repro.core.shm  # noqa: F401 - imports cpu_copy by name
    import repro.kernel.copy as copy

    original = copy.cpu_copy
    importers = [
        m for m in list(sys.modules.values())
        if getattr(m, "cpu_copy", None) is original
    ]
    assert len(importers) > 2
    tracer = Tracer()
    tracer.install([("kernel.copy", copy, "cpu_copy", None)])
    try:
        assert all(m.cpu_copy is not original for m in importers)
    finally:
        tracer.uninstall()
    assert all(m.cpu_copy is original for m in importers)


@pytest.mark.parametrize("owner", ["class", "module"])
def test_uninstall_is_idempotent(owner):
    import repro.kernel.copy as copy
    from repro.sim.engine import Engine as E

    target = (E, "step") if owner == "class" else (copy, "cpu_copy")
    before = vars(target[0])[target[1]]
    tracer = Tracer()
    tracer.install([("x", *target, None)])
    tracer.uninstall()
    tracer.uninstall()
    assert vars(target[0])[target[1]] is before
