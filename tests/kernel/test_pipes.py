"""Tests for the simulated UNIX pipe (writev / vmsplice / readv)."""

import numpy as np
import pytest

from repro.errors import PipeError
from repro.kernel.address_space import AddressSpace
from repro.kernel.pipes import Pipe
from repro.units import KiB


@pytest.fixture()
def space(machine):
    return AddressSpace(machine, pid=0)


@pytest.fixture()
def space2(machine):
    return AddressSpace(machine, pid=1)


def test_pipe_capacity_default_64k(machine):
    pipe = Pipe(machine)
    assert pipe.capacity == 64 * KiB
    assert pipe.space == 64 * KiB


def test_pipe_ring_reports_the_kernel_owner(machine):
    for pipe in (Pipe(machine), Pipe(machine, name="other")):
        ring = pipe._kernel_ring
        assert (ring.space.pid, ring.space.name) == (-2, "kernel")


def test_writev_readv_roundtrip(engine, machine, space, space2):
    pipe = Pipe(machine)
    src = space.alloc(32 * KiB)
    dst = space2.alloc(32 * KiB)
    src.data[:] = np.arange(32 * KiB, dtype=np.uint8) % 199

    def writer():
        n = yield from pipe.writev(0, src.whole())
        return n

    def reader():
        n = yield from pipe.readv(4, dst.whole())
        return n

    written, read = engine.run_processes([writer(), reader()])
    assert written == 32 * KiB and read == 32 * KiB
    assert np.array_equal(dst.data, src.data)


def test_vmsplice_readv_roundtrip_single_copy(engine, machine, space, space2):
    pipe = Pipe(machine)
    src = space.alloc(48 * KiB)
    dst = space2.alloc(48 * KiB)
    src.data[:] = 42

    def sender():
        return (yield from pipe.vmsplice(0, src.whole()))

    def receiver():
        return (yield from pipe.readv(4, dst.whole()))

    ns, nr = engine.run_processes([sender(), receiver()])
    assert ns == nr == 48 * KiB
    assert np.all(dst.data == 42)
    # Single copy: the receiver copied 48 KiB; the sender copied none.
    assert machine.papi.read(4, "BYTES_COPIED") == 48 * KiB
    assert machine.papi.read(0, "BYTES_COPIED") == 0


def test_writev_is_two_copies(engine, machine, space, space2):
    pipe = Pipe(machine)
    src = space.alloc(16 * KiB)
    dst = space2.alloc(16 * KiB)

    def sender():
        return (yield from pipe.writev(0, src.whole()))

    def receiver():
        return (yield from pipe.readv(4, dst.whole()))

    engine.run_processes([sender(), receiver()])
    assert machine.papi.read(0, "BYTES_COPIED") == 16 * KiB  # into pipe pages
    assert machine.papi.read(4, "BYTES_COPIED") == 16 * KiB  # out of pipe pages


def test_large_message_flows_in_chunks(engine, machine, space, space2):
    """A 256 KiB transfer through a 64 KiB pipe requires interleaved
    progress by both ends."""
    pipe = Pipe(machine)
    src = space.alloc(256 * KiB)
    dst = space2.alloc(256 * KiB)
    src.data[:] = 9

    def sender():
        return (yield from pipe.vmsplice(0, src.whole()))

    def receiver():
        total = 0
        while total < 256 * KiB:
            n = yield from pipe.readv(4, [dst.view(total, 256 * KiB - total)])
            total += n
        return total

    ns, nr = engine.run_processes([sender(), receiver()])
    assert ns == nr == 256 * KiB
    assert np.all(dst.data == 9)


def test_writer_blocks_when_full(engine, machine, space, space2):
    pipe = Pipe(machine)
    src = space.alloc(128 * KiB)
    dst = space2.alloc(128 * KiB)
    progress = {}

    def sender():
        yield from pipe.writev(0, src.whole())
        progress["send_done"] = engine.now

    def reader():
        yield 1.0  # make the writer hit the cap first
        total = 0
        while total < 128 * KiB:
            total += yield from pipe.readv(4, [dst.view(total, 128 * KiB - total)])
        progress["recv_done"] = engine.now

    engine.run_processes([sender(), reader()])
    assert progress["send_done"] > 1.0  # had to wait for the reader


def test_reader_blocks_until_data(engine, machine, space, space2):
    pipe = Pipe(machine)
    src = space.alloc(4 * KiB)
    dst = space2.alloc(4 * KiB)
    times = {}

    def reader():
        yield from pipe.readv(4, dst.whole())
        times["read"] = engine.now

    def sender():
        yield 2.0
        yield from pipe.vmsplice(0, src.whole())

    engine.run_processes([reader(), sender()])
    assert times["read"] >= 2.0


def test_short_read_semantics(engine, machine, space, space2):
    pipe = Pipe(machine)
    src = space.alloc(4 * KiB)
    dst = space2.alloc(16 * KiB)

    def sender():
        yield from pipe.vmsplice(0, src.whole())

    def reader():
        return (yield from pipe.readv(4, dst.whole()))

    _, n = engine.run_processes([sender(), reader()])
    assert n == 4 * KiB  # returns what was available, does not wait


def test_closed_pipe_raises(engine, machine, space):
    pipe = Pipe(machine)
    pipe.close()
    src = space.alloc(64)

    def sender():
        yield from pipe.writev(0, src.whole())

    engine.process(sender())
    with pytest.raises(PipeError):
        engine.run()


def test_vmsplice_cheaper_than_writev_on_sender(engine, machine, space, space2):
    pipe = Pipe(machine)
    src = space.alloc(64 * KiB)
    dst = space2.alloc(64 * KiB)

    def sender_splice():
        t0 = engine.now
        yield from pipe.vmsplice(0, src.whole())
        return engine.now - t0

    def receiver():
        total = 0
        while total < 64 * KiB:
            total += yield from pipe.readv(4, [dst.view(total, 64 * KiB - total)])

    t_splice, _ = engine.run_processes([sender_splice(), receiver()])
    # writev on fresh pipe for comparison
    pipe2 = Pipe(machine)

    def sender_writev():
        t0 = engine.now
        yield from pipe2.writev(0, src.whole())
        return engine.now - t0

    def receiver2():
        total = 0
        while total < 64 * KiB:
            total += yield from pipe2.readv(4, [dst.view(total, 64 * KiB - total)])

    t_writev, _ = engine.run_processes([sender_writev(), receiver2()])
    assert t_splice < t_writev


def test_detach_returns_spliced_views_without_copy(engine, machine, space, space2):
    pipe = Pipe(machine)
    src = space.alloc(48 * KiB)
    src.data[:] = 77
    out = {}

    def sender():
        yield from pipe.vmsplice(0, src.whole())

    def receiver():
        views = yield from pipe.detach(4, 48 * KiB)
        out["views"] = views

    engine.run_processes([sender(), receiver()])
    views = out["views"]
    assert sum(v.nbytes for v in views) == 48 * KiB
    # The views alias the sender's pages: zero bytes were copied.
    assert views[0].buffer is src
    assert machine.papi.total("BYTES_COPIED") == 0
    assert pipe.queued_bytes == 0


def test_detach_partial_leaves_remainder(engine, machine, space):
    pipe = Pipe(machine)
    src = space.alloc(32 * KiB)

    def sender():
        yield from pipe.vmsplice(0, src.whole())

    def receiver():
        first = yield from pipe.detach(4, 10 * KiB)
        second = yield from pipe.detach(4, 64 * KiB)
        return (
            sum(v.nbytes for v in first),
            sum(v.nbytes for v in second),
        )

    _, got = engine.run_processes([sender(), receiver()])
    assert got == (10 * KiB, 22 * KiB)


def test_detach_frees_pipe_capacity(engine, machine, space):
    pipe = Pipe(machine)
    src = space.alloc(128 * KiB)
    progress = []

    def sender():
        n = yield from pipe.vmsplice(0, src.whole())
        progress.append(("sent", n, engine.now))

    def receiver():
        total = 0
        while total < 128 * KiB:
            views = yield from pipe.detach(4, 64 * KiB)
            total += sum(v.nbytes for v in views)
        return total

    _, total = engine.run_processes([sender(), receiver()])
    assert total == 128 * KiB


def test_detach_rejects_bad_budget(engine, machine, space):
    pipe = Pipe(machine)

    def receiver():
        with pytest.raises(PipeError):
            yield from pipe.detach(0, 0)

    engine.run_processes([receiver()])
