"""The internode wire protocol: eager below the threshold.

Internode eager mirrors the intranode Nemesis cells, with the NIC's
bounce buffers playing the cell role: the sender copies the payload
into a send-side bounce buffer, the NIC ships header + payload, and
the receive NIC stages the bytes into a preposted receive-side bounce
buffer before handing the packet to the endpoint's matching logic.
Two CPU copies (sender staging, receiver drain) plus the wire —
latency-optimal for small messages, but the staging copies and the
finite bounce pools are exactly what the rendezvous path (see
:mod:`repro.net.lmt`) eliminates for large ones.

This module is deliberately ignorant of :mod:`repro.mpi` internals: it
takes a communicator duck-typed (``world``, ``world_rank``, ``core``,
``cid``, ``_sw_overhead``).  Its packet type lives with the other
Nemesis packets in :mod:`repro.mpi.nemesis`, so the intranode stack
loads this module only when a message first crosses the wire.
"""

from __future__ import annotations

from functools import partial

from repro.errors import RegistrationError
from repro.kernel.address_space import BufferView, copy_payload
from repro.kernel.copy import cpu_copy
from repro.mpi.nemesis import NetEagerPacket
from repro.net.nic import NicRequest

__all__ = ["NetEagerPacket", "send_eager"]


def send_eager(comm, views: list[BufferView], nbytes: int, dest_world: int, tag: int):
    """Sender half of the internode eager path (generator).

    Completes locally once the NIC has read the staged payload; MPI
    semantics allow that because the user buffer was already copied.
    """
    world = comm.world
    nic = world.nic_of(comm.world_rank)
    engine = world.engine
    obs = engine.obs
    rdma = nic.params.eager_rdma and nbytes > 0
    msg_span = None
    if obs.enabled:
        msg_span = obs.begin(
            "msg.send", kind="msg", track=f"core{comm.core}",
            parent=getattr(comm, "_active_coll", None),
            dst=dest_world, nbytes=nbytes, tag=tag,
            path="net-eager-rdma" if rdma else "net-eager",
        )
    yield from comm._sw_overhead()

    if rdma:
        sent = yield from _send_eager_rdma(
            comm, nic, views, nbytes, dest_world, tag, msg_span
        )
        if sent:
            obs.end(msg_span)
            return
        # Registration failed (injected): fall through to the staged
        # send/recv bounce path, which needs no pinned memory.

    bounce = None
    stage = None
    if nbytes > 0:
        # Finite send-side staging: a burst of eager sends backpressures
        # here once all bounce buffers are in flight.
        bounce = yield nic.tx_bounce.get()
        stage = bounce.view(0, nbytes)
        yield from cpu_copy(nic.machine, comm.core, [stage], views, parent=msg_span)

    pkt = NetEagerPacket(
        src=comm.world_rank, tag=tag, nbytes=nbytes, cid=comm.cid, span=msg_span
    )

    def on_delivered(request: NicRequest) -> None:
        pkt.staged = request.rx_view
        pkt.release = request.rx_release
        world.endpoints[dest_world].dispatch(pkt)

    segments = [(-1, -1, nic.params.ctrl_bytes, None)]
    if nbytes > 0:
        segments.append((stage.phys, -1, nbytes, None))
    request = NicRequest(
        dst_node=world.node_of(dest_world),
        descriptors=nic.build_descriptors(segments),
        done=engine.event(f"eager->{dest_world}"),
        stage_rx=nbytes > 0,
        payload_nbytes=nbytes,
        tx_stage=stage,
        tx_release=(lambda: nic.tx_bounce.put(bounce)) if bounce is not None else None,
        on_delivered=on_delivered,
        kind="eager",
        span=msg_span,
    )
    yield from nic.charge_cpu(comm.core, nic.submission_cost(request))
    nic.submit(request)
    yield request.done
    obs.end(msg_span)


def _send_eager_rdma(comm, nic, views: list[BufferView], nbytes: int,
                     dest_world: int, tag: int, msg_span):
    """Persistent-association eager send (generator; Liu et al.).

    The payload is copied once into the sender's registered slot and
    RDMA-written straight into the matching landing zone on the
    receiver — no preposted-pool wait and no receive-side staging copy.
    Returns True on success; False when registration failed (the
    caller falls back to the bounce path and the credit is returned).
    """
    world = comm.world
    engine = world.engine
    obs = engine.obs
    dst_node = world.node_of(dest_world)
    ring = nic.eager_rdma_ring(dst_node)
    # Credit flow control: all slots in flight means the receiver has
    # not drained earlier payloads yet — block here, not on the wire.
    slot = yield ring.get()
    try:
        # Whole-buffer registration so every send of this association
        # hits the same pin-down cache entry after the first.
        yield from nic.register(comm.core, [slot.tx], parent=msg_span)
    except RegistrationError:
        nic.eager_rdma_fallbacks += 1
        ring.put(slot)
        if obs.enabled:
            obs.instant(
                "net.eager_rdma_fallback", track=f"core{comm.core}",
                parent=msg_span, dst=dest_world,
            )
        return False
    stage = slot.tx.sub(0, nbytes)
    landing = slot.rx.sub(0, nbytes)
    yield from cpu_copy(nic.machine, comm.core, [stage], views, parent=msg_span)

    pkt = NetEagerPacket(
        src=comm.world_rank, tag=tag, nbytes=nbytes, cid=comm.cid, span=msg_span
    )

    deposit = partial(copy_payload, landing, stage)

    def on_delivered(request: NicRequest) -> None:
        pkt.staged = landing
        pkt.release = lambda: ring.put(slot)
        world.endpoints[dest_world].dispatch(pkt)

    # Both sides carry real host addresses: the TX DMA read flushes the
    # sender's dirty lines, the RX DMA write invalidates the receiver's
    # cached copies — coherence the staged path charges to its CPU
    # copies instead.
    segments = [
        (-1, -1, nic.params.ctrl_bytes, None),
        (stage.phys, landing.phys, nbytes, deposit),
    ]
    request = NicRequest(
        dst_node=dst_node,
        descriptors=nic.build_descriptors(segments),
        done=engine.event(f"eager-rdma->{dest_world}"),
        on_delivered=on_delivered,
        kind="eager-rdma",
        span=msg_span,
    )
    yield from nic.charge_cpu(comm.core, nic.submission_cost(request))
    nic.eager_rdma_sends += 1
    nic.submit(request)
    yield request.done
    return True
