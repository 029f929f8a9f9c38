"""End-to-end tests of run_cluster: internode pt2pt over the fabric."""

import pytest

from repro.errors import MpiError
from repro.hw import cluster_of, xeon_e5345
from repro.mpi import run_cluster, run_mpi
from repro.net import FabricParams
from repro.obs import ObsConfig
from repro.units import KiB, MiB

TOPO = xeon_e5345()
SPEC2 = cluster_of(TOPO, 2)


def _pingpong(nbytes, reps=1):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        status = None
        t0 = ctx.now
        for rep in range(reps):
            if ctx.rank == 0:
                buf.data[:] = rep + 1
                yield comm.Send(buf, dest=peer, tag=rep)
                status = yield comm.Recv(buf, source=peer, tag=rep + 100)
            else:
                status = yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep + 100)
        return (ctx.now - t0) / reps, int(buf.data[0]), status.path

    return main


def test_internode_payload_intact():
    nbytes = 200 * KiB

    def main(ctx):
        buf = ctx.alloc(nbytes)
        if ctx.rank == 0:
            buf.data[:] = 77
            yield ctx.comm.Send(buf, dest=1, tag=0)
            return None
        status = yield ctx.comm.Recv(buf, source=0, tag=0)
        return int(buf.data[0]), int(buf.data[-1]), status.nbytes

    r = run_cluster(SPEC2, 2, main, procs_per_node=1)
    assert r.results[1] == (77, 77, nbytes)


def test_internode_latency_exceeds_intranode():
    """The fabric hop must dominate the Nemesis queues for small
    messages — the canonical cluster latency shape."""
    nbytes = 8
    inter = run_cluster(SPEC2, 2, _pingpong(nbytes), procs_per_node=1)
    intra = run_mpi(TOPO, 2, _pingpong(nbytes))
    t_inter = inter.results[0][0]
    t_intra = intra.results[0][0]
    assert t_inter > 2 * t_intra
    assert inter.results[1][2] == "net-eager"
    assert intra.results[1][2] == "eager"


def test_internode_bandwidth_saturates_link():
    nbytes = 1 * MiB
    r = run_cluster(SPEC2, 2, _pingpong(nbytes), procs_per_node=1)
    rt, _val, path = r.results[0]
    rate = 2 * nbytes / rt  # two crossings per round trip
    assert path == "nic+rdma"
    assert rate >= 0.7 * SPEC2.fabric.link_rate


def test_eager_rendezvous_crossover_follows_fabric_threshold():
    """Shrinking eager_max flips the same message size from the bounce
    path to the RDMA rendezvous."""
    nbytes = 8 * KiB
    small = cluster_of(TOPO, 2, fabric=FabricParams(eager_max=4 * KiB))
    eager = run_cluster(SPEC2, 2, _pingpong(nbytes), procs_per_node=1)
    rndv = run_cluster(small, 2, _pingpong(nbytes), procs_per_node=1)
    assert eager.results[1][2] == "net-eager"
    assert rndv.results[1][2] == "nic+rdma"


def test_eager_bounce_path_registers_no_memory():
    """Internode eager payloads stage through the NICs' preposted bounce
    buffers, so they never touch the pin-down cache."""
    r = run_cluster(SPEC2, 2, _pingpong(8 * KiB, reps=6), procs_per_node=1)
    assert r.results[1][2] == "net-eager"
    snap = r.obs.metrics.snapshot()
    assert snap["regcache.hits"] == 0 and snap["regcache.misses"] == 0


def test_per_pair_backend_selection_traced():
    """One job, three ranks: rank0-rank1 share node 0, rank2 sits on
    node 1.  Large sends must take the intranode LMT for the local pair
    and the NIC rendezvous for the remote pair — per-pair selection,
    asserted from one trace."""
    nbytes = 256 * KiB

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        if ctx.rank == 0:
            buf.data[:] = 5
            yield comm.Send(buf, dest=1, tag=0)
            yield comm.Send(buf, dest=2, tag=0)
            return None
        yield comm.Recv(buf, source=0, tag=0)
        return int(buf.data[0])

    r = run_cluster(
        SPEC2,
        3,
        main,
        bindings=[(0, 0), (0, 1), (1, 0)],
        obs=ObsConfig(spans=True),
    )
    assert r.results[1:] == [5, 5]
    # Rank 0 sends both messages, in order: to rank 1, then to rank 2.
    sends = [s for s in r.obs.find("msg.send") if s.attrs["path"] == "rndv"]
    lmt = {(0, s.attrs["dst"]): s.attrs["backend"] for s in sends}
    assert lmt[(0, 2)] == "nic+rdma"
    assert (0, 1) in lmt and lmt[(0, 1)] != "nic+rdma"


def test_default_bindings_fill_node_major():
    def main(ctx):
        return ctx.world.node_of(ctx.rank)
        yield  # pragma: no cover

    r = run_cluster(cluster_of(TOPO, 3), 6, main, procs_per_node=2)
    assert r.results == [0, 0, 1, 1, 2, 2]
    assert r.cluster.nnodes == 3
    assert r.fabric is r.cluster.fabric


def test_bad_bindings_rejected():
    def main(ctx):
        return None
        yield  # pragma: no cover

    with pytest.raises(MpiError):
        run_cluster(SPEC2, 2, main, bindings=[(0, 0), (5, 0)])
    with pytest.raises(MpiError):
        run_cluster(SPEC2, 2, main, procs_per_node=TOPO.ncores + 1)


def test_sendrecv_across_nodes_both_directions():
    nbytes = 64 * KiB

    def main(ctx):
        comm = ctx.comm
        send = ctx.alloc(nbytes)
        recv = ctx.alloc(nbytes)
        send.data[:] = ctx.rank + 1
        peer = 1 - ctx.rank
        yield comm.Sendrecv(send, peer, recv, peer, 0, 0)
        return int(recv.data[0])

    r = run_cluster(SPEC2, 2, main, procs_per_node=1)
    assert r.results == [2, 1]
