"""The wall-clock flight recorder: attribution, overhead contract,
and the determinism guarantee (profiling must never perturb sim time).
"""

from functools import partial

import pytest

from repro import ObsConfig, run_mpi
from repro.hw import xeon_e5345
from repro.obs import MetricsRegistry
from repro.obs.prof import SUBSYSTEMS, WallProfiler
from repro.units import MiB

TOPO = xeon_e5345()


def _pingpong(nbytes, reps=1):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        for rep in range(reps):
            if ctx.rank == 0:
                yield comm.Send(buf, dest=peer, tag=rep)
                yield comm.Recv(buf, source=peer, tag=rep)
            else:
                yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep)

    return main


def _run(mode="knem", profile=False, seed=None):
    return run_mpi(
        TOPO, 2, _pingpong(1 * MiB, reps=2), bindings=[0, 4], mode=mode,
        obs=ObsConfig(profile=profile), noise=seed,
    )


# ------------------------------------------------------ frame mechanics
def test_disabled_profiler_is_inert():
    prof = WallProfiler(enabled=False)
    assert prof.push("engine.dispatch.x") is None
    prof.pop(None)  # must not raise
    assert prof.seconds == {} and prof.calls == {}
    assert prof.total_seconds == 0.0


def test_exclusive_attribution_subtracts_child_time():
    now = [0.0]
    prof = WallProfiler(enabled=True, clock=lambda: now[0])
    outer = prof.push("engine.dispatch.handler")
    now[0] = 1.0
    inner = prof.push("cache.access")
    now[0] = 4.0
    prof.pop(inner)  # 3 s of cache self time
    now[0] = 5.0
    prof.pop(outer)  # 5 s elapsed - 3 s child = 2 s self
    assert prof.seconds["cache.access"] == pytest.approx(3.0)
    assert prof.seconds["engine.dispatch.handler"] == pytest.approx(2.0)
    assert prof.calls == {"engine.dispatch.handler": 1, "cache.access": 1}
    # Collapsed paths carry the nesting.
    assert prof.collapsed["engine.dispatch.handler;cache.access"] == (
        pytest.approx(3.0)
    )
    assert prof._stack == []


def test_subsystem_rollup_and_shares():
    prof = WallProfiler(enabled=True)
    prof.seconds = {
        "engine.dispatch.a": 2.0,
        "engine.dispatch.b": 1.0,
        "cache.access": 1.0,
        "copy.chunk": 0.5,
        "mystery.thing": 0.5,
    }
    subs = prof.subsystem_seconds()
    assert subs == {"engine": 3.0, "cache": 1.0, "copy": 0.5, "other": 0.5}
    shares = prof.shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["engine"] == pytest.approx(0.6)
    # Against a larger wall total, unprofiled time lands in "other".
    shares = prof.shares(10.0)
    assert shares["engine"] == pytest.approx(0.3)
    assert shares["other"] == pytest.approx(0.55)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_shares_of_empty_profiler_are_zero():
    assert set(WallProfiler().shares()) == {*SUBSYSTEMS, "other"}
    assert all(v == 0.0 for v in WallProfiler().shares().values())


def test_handler_key_memoizes_on_underlying_function():
    prof = WallProfiler(enabled=True)

    class H:
        def cb(self):
            pass

    a, b = H(), H()
    key = prof.handler_key(a.cb)
    assert key.startswith("engine.dispatch.") and key.endswith("H.cb")
    assert prof.handler_key(b.cb) == key
    assert len(prof._fn_keys) == 1  # bound methods share __func__


def test_handler_key_unwraps_partials_and_closures():
    prof = WallProfiler(enabled=True)

    class H:
        def cb(self, token, event):
            pass

    def make_closure(i):
        return lambda event: i

    keys = {prof.handler_key(partial(H().cb, token)) for token in range(5)}
    assert len(keys) == 1 and keys.pop().endswith(".H.cb")
    closures = {prof.handler_key(make_closure(i)) for i in range(5)}
    assert len(closures) == 1
    assert len(prof._fn_keys) == 2


def test_merge_and_dict_roundtrip():
    now = [0.0]
    a = WallProfiler(enabled=True, clock=lambda: now[0])
    f = a.push("cache.access")
    now[0] = 1.0
    a.pop(f)
    b = WallProfiler().merge_dict(a.to_dict())
    b.merge(a)
    assert b.seconds["cache.access"] == pytest.approx(2.0)
    assert b.calls["cache.access"] == 2
    assert b.collapsed["cache.access"] == pytest.approx(2.0)


def test_collapsed_lines_integer_microseconds_with_prefix():
    prof = WallProfiler(enabled=True)
    prof.collapsed = {"engine.dispatch.a;cache.access": 1.5e-6,
                      "engine.dispatch.a": 3.2e-6}
    lines = prof.collapsed_lines(prefix="pingpong")
    assert lines == [
        "pingpong;engine.dispatch.a 3",
        "pingpong;engine.dispatch.a;cache.access 2",
    ]


def test_publish_writes_wall_namespace_only():
    prof = WallProfiler(enabled=True)
    prof.seconds = {"engine.dispatch.a": 1.0}
    prof.calls = {"engine.dispatch.a": 4}
    reg = MetricsRegistry()
    prof.publish(reg)
    snap = reg.snapshot()
    assert snap["wall.engine.dispatch.a.seconds"] == 1.0
    assert snap["wall.engine.dispatch.a.calls"] == 4
    assert snap["wall.subsystem.engine.seconds"] == 1.0
    assert snap["wall.total_seconds"] == 1.0
    assert all(k.startswith("wall.") for k in snap)
    assert reg.sim_snapshot() == {}


# --------------------------------------------------- engine integration
def test_profiled_run_attributes_engine_cache_and_copy():
    result = _run(mode="knem", profile=True)
    prof = result.obs.prof
    assert prof.enabled and prof._stack == []
    heads = {key.split(".", 1)[0] for key in prof.seconds}
    assert {"engine", "cache", "copy"} <= heads
    snap = result.obs.metrics.snapshot()
    assert snap["wall.total_seconds"] > 0
    assert snap["wall.subsystem.engine.seconds"] > 0
    calls = sum(
        v for k, v in snap.items()
        if k.startswith("wall.engine.dispatch.") and k.endswith(".calls")
    )
    assert calls == result.world.engine.events_executed


def test_handler_key_memo_stays_one_entry_per_callback_kind():
    """Per-park wakeup partials must not accumulate in the memo (each
    entry would pin its process for the whole run)."""
    result = _run(mode="knem", profile=True)
    prof = result.obs.prof
    assert len(prof._fn_keys) <= 10
    assert "engine.dispatch.Process._on_event_with_token" in prof.calls
    assert not any("partial" in k or "<lambda>" in k for k in prof.calls)
    snap = result.obs.metrics.snapshot()
    calls = sum(
        v for k, v in snap.items()
        if k.startswith("wall.engine.dispatch.") and k.endswith(".calls")
    )
    assert calls == result.world.engine.events_executed


def test_unprofiled_run_records_nothing():
    result = _run(mode="knem", profile=False)
    assert not result.obs.prof.enabled
    assert result.obs.prof.seconds == {}
    assert not any(
        k.startswith("wall.") for k in result.obs.metrics.snapshot()
    )


# ------------------------------------------------ determinism guarantee
def test_profiling_leaves_sim_timeline_byte_identical():
    """The tentpole contract: profiling on vs off changes nothing
    observable in simulated time — elapsed, event count, every sim-time
    metric."""
    plain = _run(mode="knem-ioat", profile=False)
    profiled = _run(mode="knem-ioat", profile=True)
    assert plain.elapsed == profiled.elapsed
    assert (
        plain.world.engine.events_executed
        == profiled.world.engine.events_executed
    )
    assert (
        plain.obs.metrics.sim_snapshot()
        == profiled.obs.metrics.sim_snapshot()
    )


def test_two_seeded_profiled_runs_identical_sim_snapshots():
    """Satellite: two runs with the same seed must produce identical
    sim-time snapshots even though their wall.* metrics differ —
    ``sim_snapshot()`` is the documented determinism surface."""
    a = _run(mode="knem", profile=True, seed=7)
    b = _run(mode="knem", profile=True, seed=7)
    assert a.obs.metrics.sim_snapshot() == b.obs.metrics.sim_snapshot()
    # Wall recordings exist on both sides but are excluded by namespace.
    assert a.obs.metrics.snapshot()["wall.total_seconds"] > 0
    assert not any(k.startswith("wall.") for k in a.obs.metrics.sim_snapshot())
