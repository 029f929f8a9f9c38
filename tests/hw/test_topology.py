"""Tests for machine topology and the DMAmin threshold formula."""

import pytest

from repro.errors import HardwareError
from repro.hw import nehalem8, xeon_e5345, xeon_x5460
from repro.hw.topology import TopologySpec
from repro.units import KiB, MiB


def test_e5345_shape():
    t = xeon_e5345()
    assert t.ncores == 8
    assert t.ndies == 4
    assert t.params.l2_bytes == 4 * MiB
    assert t.l2_lines == 4 * MiB // 64


def test_e5345_cache_sharing():
    t = xeon_e5345()
    # Pairs (0,1), (2,3), (4,5), (6,7) share a die/L2.
    assert t.shares_cache(0, 1)
    assert t.shares_cache(2, 3)
    assert not t.shares_cache(0, 2)   # same socket, different dies
    assert not t.shares_cache(0, 4)   # different sockets
    assert t.same_socket(0, 2)
    assert not t.same_socket(0, 4)


def test_placement_fields():
    t = xeon_e5345()
    p = t.placement(5)
    assert p.core == 5 and p.die == 2 and p.socket == 1


def test_cores_of_die():
    t = xeon_e5345()
    assert t.cores_of_die(0) == [0, 1]
    assert t.cores_of_die(3) == [6, 7]


def test_core_out_of_range():
    t = xeon_e5345()
    with pytest.raises(HardwareError):
        t.placement(8)
    with pytest.raises(HardwareError):
        t.die_of(8)
    with pytest.raises(HardwareError):
        t.die_of(-1)
    with pytest.raises(HardwareError):
        t.cores_of_die(4)


def test_degenerate_topology_rejected():
    with pytest.raises(HardwareError):
        TopologySpec(name="bad", sockets=0, dies_per_socket=1, cores_per_die=1)


def test_dmamin_matches_paper_observations():
    """Sec. 3.5: 4 MiB shared by 2 -> 1 MiB; unshared (1 process per
    cache) -> 2 MiB; 6 MiB caches -> thresholds 50% higher."""
    t = xeon_e5345()
    assert t.dmamin_bytes(processes_using_cache=2) == 1 * MiB
    assert t.dmamin_bytes(processes_using_cache=1) == 2 * MiB
    # Architecture-only form: one process per core.
    assert t.dmamin_bytes() == 1 * MiB

    x = xeon_x5460()
    assert x.dmamin_bytes(processes_using_cache=2) == 1536 * KiB
    assert x.dmamin_bytes(2) == int(t.dmamin_bytes(2) * 1.5)


def test_dmamin_rejects_bad_sharers():
    with pytest.raises(HardwareError):
        xeon_e5345().dmamin_bytes(0)


def test_x5460_is_single_socket_quad_core():
    t = xeon_x5460()
    assert t.ncores == 4
    assert t.ndies == 2
    assert t.params.l2_bytes == 6 * MiB
    assert t.shares_cache(0, 1) and not t.shares_cache(0, 2)


def test_nehalem_all_cores_share():
    t = nehalem8()
    assert t.ncores == 8
    assert all(t.shares_cache(0, c) for c in range(8))


def test_describe_mentions_cache_size():
    assert "4MiB" in xeon_e5345().describe()
