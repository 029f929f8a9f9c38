"""Unit tests for the NIC model and the switch contention modes."""

import pytest

from repro.errors import HardwareError
from repro.hw import cluster_of, xeon_e5345
from repro.net import Cluster, FabricParams, NicRequest
from repro.sim import Engine
from repro.units import GiB, KiB, PAGE_SIZE

TOPO = xeon_e5345()


def _cluster(nnodes=2, fabric=None):
    engine = Engine()
    return engine, Cluster(engine, cluster_of(TOPO, nnodes, fabric=fabric))


def _request(nic, cluster, nbytes, dst=1, ack=False):
    segments = [(-1, -1, nbytes, None)]
    return NicRequest(
        dst_node=dst,
        descriptors=nic.build_descriptors(segments),
        done=cluster.fabric.engine.event("t"),
        ack=ack,
    )


def test_build_descriptors_chunks_at_mtu():
    _engine, cluster = _cluster()
    nic = cluster.nic(0)
    limit = cluster.fabric.params.nic_max_desc_bytes
    descs = nic.build_descriptors([(0, 4096, int(2.5 * limit), "X")])
    assert [d.nbytes for d in descs] == [limit, limit, limit // 2]
    # execute rides only the final piece; offsets advance on both sides.
    assert [d.execute for d in descs] == [None, None, "X"]
    assert [d.src_phys for d in descs] == [0, limit, 2 * limit]
    assert [d.dst_phys for d in descs] == [4096, 4096 + limit, 4096 + 2 * limit]


def test_build_descriptors_rejects_empty_segment():
    _engine, cluster = _cluster()
    with pytest.raises(HardwareError):
        cluster.nic(0).build_descriptors([(0, 0, 0, None)])


def test_submit_validates_destination():
    engine, cluster = _cluster()
    nic = cluster.nic(0)
    with pytest.raises(HardwareError):
        nic.submit(_request(nic, cluster, 1024, dst=7))
    with pytest.raises(HardwareError):
        nic.submit(NicRequest(dst_node=1, descriptors=[], done=engine.event("e")))


def test_transfer_counts_bytes_and_completes_locally():
    engine, cluster = _cluster()
    nic = cluster.nic(0)
    req = _request(nic, cluster, 100 * KiB)
    nic.submit(req)
    engine.run()
    assert req.done.triggered
    assert nic.bytes_tx == 100 * KiB
    assert cluster.nic(1).bytes_rx == 100 * KiB


def test_ack_completion_is_later_than_local():
    times = {}
    for ack in (False, True):
        engine, cluster = _cluster()
        nic = cluster.nic(0)
        req = _request(nic, cluster, 64 * KiB, ack=ack)
        nic.submit(req)
        engine.run()
        times[ack] = req.done.value
    # RDMA-style ack adds at least the return-path latency.
    p = FabricParams()
    assert times[True] >= times[False] + p.ack_latency


def test_large_transfer_approaches_link_rate():
    engine, cluster = _cluster()
    nic = cluster.nic(0)
    nbytes = 4 * 1024 * KiB
    req = _request(nic, cluster, nbytes)
    t0 = engine.now
    nic.submit(req)
    engine.run()
    rate = nbytes / (engine.now - t0)
    assert rate >= 0.7 * cluster.fabric.params.link_rate


def test_ctrl_packet_delivery_and_completion_delay():
    engine, cluster = _cluster()
    seen = []
    cluster.nic(0).send_ctrl(1, lambda req: seen.append((engine.now, req)))
    engine.run()
    assert len(seen) == 1
    p = cluster.fabric.params
    t, req = seen[0]
    assert req.src_node == 0
    # At minimum: wire + two hops + forwarding + completion delay.
    floor = p.ctrl_bytes / p.link_rate + 2 * p.link_latency + p.switch_latency
    assert t >= floor + p.t_completion


def test_registration_cache_makes_repeat_free():
    engine, cluster = _cluster()
    nic = cluster.nic(0)
    from repro.kernel.address_space import AddressSpace

    space = AddressSpace(cluster.machine(0), pid=0)
    views = [space.alloc(256 * KiB).view()]

    def main():
        t0 = engine.now
        yield from nic.register(0, views)
        first = engine.now - t0
        t0 = engine.now
        yield from nic.register(0, views)
        second = engine.now - t0
        return first, second

    proc = engine.process(main())
    engine.run()
    first, second = proc.result
    assert first > second
    assert second == pytest.approx(cluster.machine(0).params.t_syscall)


@pytest.mark.parametrize("contention", ["output", "bus", "ideal"])
def test_incast_two_senders_one_port(contention):
    """Two nodes blast node 2 at once: with a contended egress port the
    pair takes ~2x one flow's time; the ideal switch lets them overlap."""
    nbytes = 512 * KiB
    durations = {}
    fabric = FabricParams(contention=contention)
    engine, cluster = _cluster(3, fabric=fabric)
    reqs = []
    for src in (0, 1):
        nic = cluster.nic(src)
        req = _request(nic, cluster, nbytes, dst=2)
        nic.submit(req)
        reqs.append(req)
    engine.run()
    elapsed = engine.now
    one_engine, one_cluster = _cluster(3, fabric=fabric)
    nic = one_cluster.nic(0)
    nic.submit(_request(nic, one_cluster, nbytes, dst=2))
    one_engine.run()
    single = one_engine.now
    if contention == "ideal":
        assert elapsed < 1.3 * single
    else:
        assert elapsed > 1.6 * single
    assert cluster.nic(2).bytes_rx == 2 * nbytes


def test_misaligned_descriptor_covers_every_line_it_touches():
    """A 64-byte RDMA write starting mid-line spans two lines on each
    node: both source lines flush, both destination lines invalidate."""
    engine, cluster = _cluster()
    src_m, dst_m = cluster.machine(0), cluster.machine(1)
    src = src_m.alloc_phys(PAGE_SIZE) + 32
    dst = dst_m.alloc_phys(PAGE_SIZE) + 32
    s0, s1 = src_m.line_span(src, 64)
    d0, d1 = dst_m.line_span(dst, 64)
    assert (s1 - s0, d1 - d0) == (2, 2)
    src_m.coherence.write(0, s0, s1)
    dst_m.coherence.write(0, d0, d1)
    nic = cluster.nic(0)
    nic.submit(NicRequest(
        dst_node=1,
        descriptors=nic.build_descriptors([(src, dst, 64, None)]),
        done=engine.event("t"),
    ))
    engine.run()
    assert src_m.caches[0].peek(s0, s1) == [(s0, s1, False)]
    assert dst_m.caches[0].peek(d0, d1) == []
