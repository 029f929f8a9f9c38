"""Tests for the PAPI-like counter registry."""

import pytest

from repro.errors import HardwareError
from repro.hw.counters import EVENTS, CounterSet, Papi


def test_counters_start_at_zero():
    papi = Papi(4)
    for event in EVENTS:
        assert papi.read(0, event) == 0


def test_add_and_read():
    papi = Papi(2)
    papi.add(0, "L2_MISSES", 10)
    papi.add(0, "L2_MISSES", 5)
    papi.add(1, "L2_MISSES", 1)
    assert papi.read(0, "L2_MISSES") == 15
    assert papi.read(1, "L2_MISSES") == 1


def test_total_over_cores():
    papi = Papi(4)
    for core in range(4):
        papi.add(core, "SYSCALLS", core)
    assert papi.total("SYSCALLS") == 6
    assert papi.total("SYSCALLS", cores=[1, 3]) == 4


def test_totals_equal_total_per_event_bit_for_bit():
    papi = Papi(3)
    papi.add(0, "CPU_BUSY", 0.1)
    papi.add(2, "CPU_BUSY", 0.2)
    papi.add(1, "CPU_BUSY", 0.3)
    papi[1].add_stream(4, 2, 1, 1, 0)
    totals = papi.totals()
    assert list(totals) == list(EVENTS)
    for event in EVENTS:
        assert repr(totals[event]) == repr(papi.total(event))
    assert totals["CPU_BUSY"] == (0.1 + 0.3) + 0.2  # core order
    assert totals["SYSCALLS"] == 0.0 and isinstance(totals["SYSCALLS"], float)


def test_unknown_event_rejected():
    papi = Papi(1)
    with pytest.raises(HardwareError):
        papi.add(0, "FLUX_CAPACITOR", 1)
    with pytest.raises(HardwareError):
        papi.read(0, "FLUX_CAPACITOR")


def test_snapshot_and_reset():
    papi = Papi(2)
    papi.add(0, "WRITEBACKS", 3)
    snap = papi.snapshot()
    assert snap[0]["WRITEBACKS"] == 3
    assert snap[1]["WRITEBACKS"] == 0
    papi.reset()
    assert papi.read(0, "WRITEBACKS") == 0


def test_counterset_float_events():
    cs = CounterSet(0)
    cs.add("CPU_BUSY", 0.5)
    cs.add("CPU_BUSY", 0.25)
    assert cs.read("CPU_BUSY") == pytest.approx(0.75)


def test_indexing():
    papi = Papi(3)
    papi[2].add("DMA_BYTES", 100)
    assert papi.read(2, "DMA_BYTES") == 100
