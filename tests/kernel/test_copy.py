"""Tests for the timed cache-accurate copy primitive."""

import contextlib
import signal

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernel.address_space import AddressSpace
from repro.kernel.copy import cpu_copy, iter_lockstep, stream_access
from repro.units import KiB, MiB


@pytest.fixture()
def space(machine):
    return AddressSpace(machine, pid=0)


def run(engine, gen):
    results = engine.run_processes([gen])
    return results[0], engine.now


def test_copy_moves_real_bytes(engine, machine, space):
    src = space.alloc(10 * KiB)
    dst = space.alloc(10 * KiB)
    src.data[:] = np.arange(10 * KiB, dtype=np.uint8) % 251

    copied, _ = run(engine, cpu_copy(machine, 0, dst.whole(), src.whole()))
    assert copied == 10 * KiB
    assert np.array_equal(dst.data, src.data)


def test_copy_time_positive_and_rate_sane(engine, machine, space):
    src = space.alloc(1 * MiB)
    dst = space.alloc(1 * MiB)
    _, t = run(engine, cpu_copy(machine, 0, dst.whole(), src.whole()))
    rate = 1 * MiB / t
    # Cold copy through DRAM: should be around copy_rate_dram.
    assert 0.3 * machine.params.copy_rate_dram() < rate < 1.5 * machine.params.copy_rate_dram()


def test_warm_copy_faster_than_cold(engine, machine, space):
    src = space.alloc(256 * KiB)
    dst = space.alloc(256 * KiB)

    def proc():
        t0 = engine.now
        yield from cpu_copy(machine, 0, dst.whole(), src.whole())
        cold = engine.now - t0
        t1 = engine.now
        yield from cpu_copy(machine, 0, dst.whole(), src.whole())
        warm = engine.now - t1
        return cold, warm

    (cold, warm), _ = run(engine, proc())
    assert warm < cold / 1.5


def test_copy_counts_papi_events(engine, machine, space):
    src = space.alloc(64 * KiB)
    dst = space.alloc(64 * KiB)
    run(engine, cpu_copy(machine, 2, dst.whole(), src.whole()))
    assert machine.papi.read(2, "BYTES_COPIED") == 64 * KiB
    assert machine.papi.read(2, "L2_MISSES") == 2 * 64 * KiB // 64
    assert machine.papi.read(2, "CPU_BUSY") > 0


def test_copy_shorter_side_wins(engine, machine, space):
    src = space.alloc(100)
    dst = space.alloc(40)
    copied, _ = run(engine, cpu_copy(machine, 0, dst.whole(), src.whole()))
    assert copied == 40


def test_iovec_lockstep_copy(engine, machine, space):
    src = space.alloc(300)
    src.data[:] = 5
    d1, d2 = space.alloc(120), space.alloc(180)
    views = [d1.view(), d2.view()]
    copied, _ = run(engine, cpu_copy(machine, 0, views, src.whole()))
    assert copied == 300
    assert d1.data.tolist() == [5] * 120
    assert d2.data.tolist() == [5] * 180


def test_iter_lockstep_pieces():
    class FakeView:
        def __init__(self, nbytes):
            self.nbytes = nbytes

        def sub(self, off, n):
            return (self, off, n)

    dst = [FakeView(100), FakeView(50)]
    src = [FakeView(150)]
    pieces = list(iter_lockstep(dst, src, chunk=60))
    sizes = [d[2] for d, s in pieces]
    assert sizes == [60, 40, 50]
    assert sum(sizes) == 150


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging if the body runs longer than ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("chunk", [0, -64])
def test_iter_lockstep_rejects_non_positive_chunk(space, chunk):
    buf = space.alloc(4 * KiB)
    with _deadline(5), pytest.raises(KernelError, match="chunk"):
        list(iter_lockstep(buf.whole(), buf.whole(), chunk))


@pytest.mark.parametrize("chunk", [0, -64])
def test_stream_access_rejects_non_positive_chunk(engine, machine, space, chunk):
    buf = space.alloc(4 * KiB)
    with _deadline(5), pytest.raises(KernelError, match="chunk"):
        next(stream_access(machine, 0, buf.whole(), chunk=chunk))


@pytest.mark.parametrize("chunk", [0, -64])
def test_cpu_copy_rejects_non_positive_chunk(engine, machine, space, chunk):
    # One view a side that fits any chunk still checks the chunk.
    a, b = space.alloc(4 * KiB), space.alloc(4 * KiB)
    with _deadline(5), pytest.raises(KernelError, match="chunk"):
        next(cpu_copy(machine, 0, a.whole(), b.whole(), chunk=chunk))


@pytest.mark.parametrize(
    "intensity, shown",
    [(-1.0, "-1.0"), (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf")],
)
def test_stream_access_rejects_bad_intensity(engine, machine, space, intensity, shown):
    """A negative, NaN or infinite intensity is refused, naming the
    value, before any chunk touches the cache or a core."""
    buf = space.alloc(128 * KiB)
    with pytest.raises(KernelError, match=f"intensity.*got {shown}$"):
        next(stream_access(machine, 0, buf.whole(), intensity=intensity))
    assert all(cache.used_lines == 0 for cache in machine.caches)
    assert machine.papi.read(0, "CPU_BUSY") == 0
    assert engine.now == 0


def test_remote_source_copy_slower_than_shared(engine, machine, space):
    """Copying data resident in a remote cache (FSB) is slower than
    data resident in the local (shared) cache."""
    src = space.alloc(256 * KiB)
    dst1 = space.alloc(256 * KiB)
    dst2 = space.alloc(256 * KiB)

    def proc():
        # Warm src in die 0's cache (core 0).
        yield from cpu_copy(machine, 0, dst1.whole(), src.whole())
        # Core 1 shares die 0's cache: local hits.
        t0 = engine.now
        yield from cpu_copy(machine, 1, dst2.whole(), src.whole())
        t_shared = engine.now - t0
        # Re-warm src in die0 (the previous copy left it there).
        # Core 4 is on the other socket: snoop transfers.
        t1 = engine.now
        yield from cpu_copy(machine, 4, dst2.whole(), src.whole())
        t_remote = engine.now - t1
        return t_shared, t_remote

    (t_shared, t_remote), _ = run(engine, proc())
    assert t_remote > t_shared


def test_stream_access_touches_cache(engine, machine, space):
    buf = space.alloc(128 * KiB)
    touched, _ = run(engine, stream_access(machine, 0, buf.whole(), write=False))
    assert touched == 128 * KiB
    assert machine.caches[0].resident_lines(*machine.line_span(buf.phys, buf.nbytes)) == 128 * KiB // 64


def test_stream_access_intensity_scales_time(engine, machine, space):
    buf = space.alloc(256 * KiB)

    def proc(intensity):
        def inner():
            t0 = engine.now
            yield from stream_access(machine, 0, buf.whole(), intensity=intensity)
            return engine.now - t0

        return inner

    e1 = machine.engine
    t_low, _ = run(e1, proc(1.0)())
    # Fresh engine/machine state for a fair comparison.
    from repro.hw import Machine as M, xeon_e5345
    from repro.sim import Engine as E

    e2 = E()
    m2 = M(e2, xeon_e5345())
    sp2 = AddressSpace(m2, 0)
    buf2 = sp2.alloc(256 * KiB)

    def proc2():
        t0 = e2.now
        yield from stream_access(m2, 0, buf2.whole(), intensity=20.0)
        return e2.now - t0

    t_high, _ = e2.run_processes([proc2()])[0], e2.now
    assert t_high > 3 * t_low


def test_copy_write_dirties_destination(engine, machine, space):
    src = space.alloc(64 * KiB)
    dst = space.alloc(64 * KiB)
    run(engine, cpu_copy(machine, 0, dst.whole(), src.whole()))
    d0, d1 = machine.line_span(dst.phys, dst.nbytes)
    segs = machine.caches[0].peek(d0, d1)
    assert segs and all(dirty for _, _, dirty in segs)
