"""Tests for processor-sharing resources, locks, and channels."""

import pytest

from repro.errors import SimulationError
from repro.sim import Channel, Engine, FifoLock, ProcessorSharing
from repro.sim.events import Join


# ---------------------------------------------------------------- PS --
def test_single_job_takes_work_over_rate():
    eng = Engine()
    core = ProcessorSharing(eng, rate=1.0)
    done = []

    def proc():
        yield core.busy(2.5)
        done.append(eng.now)

    eng.run_processes([proc])
    assert done == [pytest.approx(2.5)]


def test_two_equal_jobs_each_stretch_to_double():
    """Two 1s jobs on one core finish together at t=2 (the Fig. 6
    kernel-thread competition effect)."""
    eng = Engine()
    core = ProcessorSharing(eng, rate=1.0)
    ends = []

    def proc():
        yield core.busy(1.0)
        ends.append(eng.now)

    eng.run_processes([proc, proc])
    assert ends == [pytest.approx(2.0), pytest.approx(2.0)]


def test_late_arrival_shares_remaining_service():
    # Job A: 2s of work alone from t=0. Job B: 1s of work arriving t=1.
    # t in [0,1): A alone, A has 1s left at t=1.
    # t >= 1: both share; A needs 1s work at half speed -> 2s -> t=3;
    # B needs 1s at half speed -> t=3. Both end at 3.
    eng = Engine()
    core = ProcessorSharing(eng, rate=1.0)
    ends = {}

    def job_a():
        yield core.busy(2.0)
        ends["a"] = eng.now

    def job_b():
        yield 1.0
        yield core.busy(1.0)
        ends["b"] = eng.now

    eng.run_processes([job_a, job_b])
    assert ends["a"] == pytest.approx(3.0)
    assert ends["b"] == pytest.approx(3.0)


def test_short_job_departs_and_speeds_up_long_job():
    # A: 3s work; B: 0.5s work, both at t=0.
    # Shared until B done: B finishes 0.5 work at rate 1/2 => t=1.
    # A then has 3-0.5=2.5 left alone => ends at 1+2.5=3.5.
    eng = Engine()
    core = ProcessorSharing(eng, rate=1.0)
    ends = {}

    def job_a():
        yield core.busy(3.0)
        ends["a"] = eng.now

    def job_b():
        yield core.busy(0.5)
        ends["b"] = eng.now

    eng.run_processes([job_a, job_b])
    assert ends["b"] == pytest.approx(1.0)
    assert ends["a"] == pytest.approx(3.5)


def test_rate_scales_service():
    eng = Engine()
    bus = ProcessorSharing(eng, rate=1e9)  # 1 GB/s
    ends = []

    def xfer():
        yield bus.request(500e6)  # 500 MB
        ends.append(eng.now)

    eng.run_processes([xfer])
    assert ends == [pytest.approx(0.5)]


def test_zero_work_completes_immediately():
    eng = Engine()
    core = ProcessorSharing(eng, rate=1.0)

    def proc():
        yield core.busy(0.0)
        return eng.now

    assert eng.run_processes([proc]) == [0.0]


def test_negative_work_rejected():
    eng = Engine()
    core = ProcessorSharing(eng, rate=1.0)
    with pytest.raises(SimulationError):
        core.request(-1.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf")])
def test_non_finite_work_rejected_naming_the_server(work):
    """NaN work used to finish every job at time NaN, and infinite work
    pushed the clock to infinity, both without an error."""
    eng = Engine()
    core = ProcessorSharing(eng, rate=1.0, name="core3")
    core.request(1.0)
    with pytest.raises(SimulationError, match=rf"core3: work is not finite: {work}"):
        core.request(work)
    with pytest.raises(SimulationError, match="core3"):
        core.busy(work)
    assert core.load == 1
    assert eng.run() == 1.0


def test_joined_and_detached_requests_return_no_event():
    eng = Engine()
    bus = ProcessorSharing(eng, rate=2.0)
    join = Join(eng, 3)
    assert bus.request(2.0, join) is None
    assert bus.request(0.0, join) is None  # zero work counts down at once
    assert bus.request(4.0, join) is None
    assert bus.request(1.0, detached=True) is None
    seen = []
    join.add_callback(lambda ev: seen.append(eng.now))
    eng.run()
    assert seen == [3.5]
    assert bus.load == 0


def test_bad_rate_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        ProcessorSharing(eng, rate=0.0)


def test_load_tracks_concurrency():
    eng = Engine()
    core = ProcessorSharing(eng, rate=1.0)
    observed = []

    def proc():
        yield core.busy(1.0)

    def observer():
        yield 0.5
        observed.append(core.load)
        yield 3.0
        observed.append(core.load)

    eng.run_processes([proc, proc, observer])
    assert observed == [2, 0]


def test_many_jobs_total_throughput_conserved():
    """N equal jobs of work w on a rate-r server all finish at N*w/r."""
    eng = Engine()
    core = ProcessorSharing(eng, rate=2.0)
    ends = []

    def proc():
        yield core.busy(1.0)
        ends.append(eng.now)

    eng.run_processes([proc] * 8)
    assert all(t == pytest.approx(8 * 1.0 / 2.0) for t in ends)


# -------------------------------------------------------------- lock --
def test_fifo_lock_mutual_exclusion_and_order():
    eng = Engine()
    lock = FifoLock(eng)
    order = []

    def proc(i):
        yield lock.acquire()
        order.append(("in", i, eng.now))
        yield 1.0
        order.append(("out", i, eng.now))
        lock.release()

    eng.run_processes([lambda i=i: (yield from proc(i)) for i in range(3)])
    assert order == [
        ("in", 0, 0.0), ("out", 0, 1.0),
        ("in", 1, 1.0), ("out", 1, 2.0),
        ("in", 2, 2.0), ("out", 2, 3.0),
    ]


def test_release_unlocked_raises():
    eng = Engine()
    lock = FifoLock(eng)
    with pytest.raises(SimulationError):
        lock.release()


# ----------------------------------------------------------- channel --
def test_channel_put_then_get():
    eng = Engine()
    chan = Channel(eng)
    chan.put("a")
    chan.put("b")

    def getter():
        x = yield chan.get()
        y = yield chan.get()
        return [x, y]

    assert eng.run_processes([getter]) == [["a", "b"]]


def test_channel_get_blocks_until_put():
    eng = Engine()
    chan = Channel(eng)
    log = []

    def getter():
        item = yield chan.get()
        log.append((eng.now, item))

    def putter():
        yield 2.0
        chan.put("late")

    eng.run_processes([getter, putter])
    assert log == [(2.0, "late")]


def test_channel_fifo_wakeup_order():
    eng = Engine()
    chan = Channel(eng)
    got = []

    def getter(i):
        item = yield chan.get()
        got.append((i, item))

    def putter():
        yield 1.0
        chan.put("x")
        chan.put("y")

    eng.run_processes(
        [lambda i=i: (yield from getter(i)) for i in range(2)] + [putter]
    )
    assert got == [(0, "x"), (1, "y")]


def test_channel_len_and_peek():
    eng = Engine()
    chan = Channel(eng)
    assert len(chan) == 0 and chan.peek() is None
    chan.put(5)
    assert len(chan) == 1 and chan.peek() == 5
