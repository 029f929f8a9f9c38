"""Tests for the multi-channel DMA engine."""

import pytest

from repro.hw import Machine, xeon_e5345
from repro.hw.dma import DmaDescriptor, DmaRequest
from repro.hw.topology import TopologySpec
from repro.sim import Engine
from repro.units import KiB, MiB


def _machine(channels=1, **extra):
    base = xeon_e5345()
    topo = TopologySpec(
        name=base.name,
        sockets=base.sockets,
        dies_per_socket=base.dies_per_socket,
        cores_per_die=base.cores_per_die,
        params=base.params.scaled(dma_channels=channels, **extra),
    )
    eng = Engine()
    return eng, Machine(eng, topo)


def _request(eng, m, nbytes):
    src = m.alloc_phys(nbytes)
    dst = m.alloc_phys(nbytes)
    limit = m.dma.max_desc_bytes
    descs = [
        DmaDescriptor(src + o, dst + o, min(limit, nbytes - o))
        for o in range(0, nbytes, limit)
    ]
    return DmaRequest(descs, done=eng.event())


def _run_two_requests(channels, **extra):
    eng, m = _machine(channels, **extra)
    r1 = _request(eng, m, 1 * MiB)
    r2 = _request(eng, m, 1 * MiB)
    times = {}

    def proc():
        m.dma.submit(r1)
        m.dma.submit(r2)
        yield r1.done
        yield r2.done
        times["end"] = eng.now

    eng.run_processes([proc])
    return times["end"]


def test_channel_count_from_params():
    _, m1 = _machine(1)
    _, m4 = _machine(4)
    assert m1.dma.channels == 1
    assert m4.dma.channels == 4


def test_two_channels_overlap_requests():
    """With an unconstrained bus, two channels halve the two-request
    makespan (at default rates the shared DRAM bus limits the gain —
    see the bus-limited test below)."""
    wide_bus = {"dram_bus_rate": 1e12}
    serial = _run_two_requests(channels=1, **wide_bus)
    parallel = _run_two_requests(channels=2, **wide_bus)
    assert parallel < 0.6 * serial


def test_parallel_channels_still_bus_limited():
    """More channels cannot exceed the DRAM bus: 4 channels on 2
    requests gain nothing over 2 channels if the bus saturates."""
    two = _run_two_requests(channels=2)
    four = _run_two_requests(channels=4)
    assert four == pytest.approx(two, rel=0.05)


def test_single_requests_unaffected_by_channel_count():
    eng1, m1 = _machine(1)
    r = _request(eng1, m1, 2 * MiB)

    def proc():
        m1.dma.submit(r)
        yield r.done
        return eng1.now

    (t1,) = eng1.run_processes([proc])

    eng4, m4 = _machine(4)
    r4 = _request(eng4, m4, 2 * MiB)

    def proc4():
        m4.dma.submit(r4)
        yield r4.done
        return eng4.now

    (t4,) = eng4.run_processes([proc4])
    assert t4 == pytest.approx(t1, rel=0.01)


def test_in_order_within_a_channel():
    """On one channel the status-write trick stays valid: requests
    complete in submission order."""
    eng, m = _machine(1)
    big = _request(eng, m, 2 * MiB)
    small = _request(eng, m, 64 * KiB)
    order = []

    def proc():
        m.dma.submit(big)
        m.dma.submit(small)
        big.done.add_callback(lambda e: order.append("big"))
        small.done.add_callback(lambda e: order.append("small"))
        yield small.done

    eng.run_processes([proc])
    assert order == ["big", "small"]
