"""The internode rendezvous packaged as an LMT backend.

RTS/CTS with an RDMA write: both sides register their buffers with
their NIC (pin-down-cached, so reuse is cheap), the CTS advertises the
receiver's registered destination, and the sender posts one work
request whose descriptors the NIC drains autonomously — zero CPU on
either side while the bytes move, the internode twin of the KNEM+I/OAT
offload path.  Completion is the hardware ack on the sender and the
last-byte arrival notification on the receiver.

Because it subclasses :class:`repro.core.lmt.LmtBackend`, internode
transfers ride the exact same communicator rendezvous code path as the
intranode LMTs; only :meth:`repro.mpi.world.MpiWorld.select_backend`
differs.

:class:`NicStagedLmt` is the degraded sibling: when NIC memory
registration fails (injected by a fault plan, or simply unavailable),
the rendezvous falls back to pipelining ``eager_max``-sized chunks
through the NICs' bounce pools — the wire analogue of the intranode
shared-memory double-buffering copy, trading two CPU copies per chunk
for needing no pinned memory at all.
"""

from __future__ import annotations

from functools import partial

from repro.core.lmt import LmtBackend, TransferSide
from repro.kernel.address_space import copy_payload
from repro.kernel.copy import cpu_copy, iter_lockstep
from repro.net.nic import NetDescriptor, NicRequest
from repro.sim.resources import Channel

__all__ = ["NicRdmaLmt", "NicStagedLmt"]


class NicRdmaLmt(LmtBackend):
    """Rendezvous over the fabric: register, RTS/CTS, RDMA write."""

    name = "nic+rdma"
    receiver_sends_done = False  # the hardware ack releases the sender

    # ------------------------------------------------------------ sender
    def sender_start(self, side: TransferSide):
        nic = side.world.nic_of(side.rank)
        yield from nic.register(side.core, side.views, parent=side.span)
        # Posting the RTS send is one more doorbell.
        yield from nic.charge_cpu(side.core, nic.params.t_doorbell)
        return {}

    def sender_on_cts(self, side: TransferSide, cts_info: dict):
        nic = side.world.nic_of(side.rank)
        descriptors = []
        for dst, src in iter_lockstep(
            cts_info["views"], side.views, nic.params.nic_max_desc_bytes
        ):
            descriptors.append(
                NetDescriptor(
                    nbytes=src.nbytes,
                    execute=partial(copy_payload, dst, src),
                    src_phys=src.phys,
                    dst_phys=dst.phys,
                )
            )
        arrival = cts_info["arrival"]
        obs = side.engine.obs
        cmd_span = None
        if obs.enabled:
            cmd_span = obs.begin(
                "rdma.write", kind="cmd", track=f"core{side.core}",
                parent=side.span, nbytes=side.nbytes, dst=cts_info["node"],
            )
        request = NicRequest(
            dst_node=cts_info["node"],
            descriptors=descriptors,
            done=side.engine.event(f"rdma.txn{side.txn}"),
            ack=True,
            on_delivered=lambda _req: arrival.succeed(),
            kind="rdma",
            span=cmd_span,
        )
        yield from nic.charge_cpu(side.core, nic.submission_cost(request))
        nic.submit(request)
        # Zero-CPU from here: park until the hardware ack returns.
        yield request.done
        obs.end(cmd_span)

    # ---------------------------------------------------------- receiver
    def receiver_prepare(self, side: TransferSide, rts_info: dict):
        nic = side.world.nic_of(side.rank)
        yield from nic.register(side.core, side.views, parent=side.span)
        yield from nic.charge_cpu(side.core, nic.params.t_doorbell)
        arrival = side.engine.event(f"rdma.arrive.txn{side.txn}")
        side.scratch["arrival"] = arrival
        return {
            "views": side.views,
            "arrival": arrival,
            "node": side.world.node_of(side.rank),
        }

    def receiver_transfer(self, side: TransferSide, rts_info: dict):
        # The NIC writes straight into the posted receive buffer; the
        # receiver just waits for the completion notification.
        yield side.scratch["arrival"]
        return self.name


def _slice_iovec(views, offset: int, nbytes: int):
    """Sub-views covering ``[offset, offset + nbytes)`` of an iovec."""
    out = []
    for view in views:
        if offset >= view.nbytes:
            offset -= view.nbytes
            continue
        n = min(nbytes, view.nbytes - offset)
        out.append(view.sub(offset, n))
        nbytes -= n
        offset = 0
        if nbytes <= 0:
            break
    return out


class NicStagedLmt(LmtBackend):
    """Registration-free rendezvous: pipeline chunks through the bounce
    pools (internode twin of the intranode shm double-buffering copy).

    The sender copies each ``eager_max``-sized chunk into a TX bounce
    buffer and posts it; the receive NIC stages it into a preposted RX
    bounce buffer and the receiver copies it out.  Finite bounce pools
    on both sides give the classic double-buffering overlap (copy chunk
    ``k`` while chunk ``k-1`` is on the wire) and natural backpressure.
    Each chunk carries its own destination offset, so a retransmitted
    chunk overtaken by its successors still lands in the right place.
    """

    name = "nic+staged"
    receiver_sends_done = True  # the receiver drains the last chunk

    # ------------------------------------------------------------ sender
    def sender_start(self, side: TransferSide):
        nic = side.world.nic_of(side.rank)
        # No registration: this path exists for when register() can't.
        yield from nic.charge_cpu(side.core, nic.params.t_doorbell)
        return {}

    def sender_on_cts(self, side: TransferSide, cts_info: dict):
        nic = side.world.nic_of(side.rank)
        engine = side.engine
        chunks: Channel = cts_info["chunks"]
        dst_node = cts_info["node"]
        obs = engine.obs
        offset = 0
        for seq, piece in enumerate(_iovec_pieces(side.views, nic.params.eager_max)):
            chunk_span = None
            if obs.enabled:
                chunk_span = obs.begin(
                    "staged.chunk", kind="chunk", track=f"core{side.core}",
                    parent=side.span, seq=seq, nbytes=piece.nbytes,
                )
            bounce = yield nic.tx_bounce.get()
            stage = bounce.view(0, piece.nbytes)
            yield from cpu_copy(
                nic.machine, side.core, [stage], [piece], parent=chunk_span
            )
            request = NicRequest(
                dst_node=dst_node,
                descriptors=nic.build_descriptors(
                    [(stage.phys, -1, piece.nbytes, None)]
                ),
                done=engine.event(f"staged.txn{side.txn}+{offset}"),
                stage_rx=True,
                payload_nbytes=piece.nbytes,
                tx_stage=stage,
                tx_release=(lambda b=bounce: nic.tx_bounce.put(b)),
                on_delivered=(lambda req, off=offset: chunks.put((off, req))),
                kind="staged",
                span=chunk_span,
            )
            yield from nic.charge_cpu(side.core, nic.submission_cost(request))
            nic.submit(request)
            obs.end(chunk_span)
            offset += piece.nbytes
        # Completion is the receiver's DONE (receiver_sends_done): the
        # last TX bounce is only recycled once its bytes were staged.

    # ---------------------------------------------------------- receiver
    def receiver_prepare(self, side: TransferSide, rts_info: dict):
        yield from ()
        chunks = Channel(side.engine, name=f"staged.txn{side.txn}")
        side.scratch["chunks"] = chunks
        return {"chunks": chunks, "node": side.world.node_of(side.rank)}

    def receiver_transfer(self, side: TransferSide, rts_info: dict):
        machine = side.machine
        remaining = side.nbytes
        chunks: Channel = side.scratch["chunks"]
        while remaining > 0:
            offset, request = yield chunks.get()
            dsts = _slice_iovec(side.views, offset, request.payload_nbytes)
            yield from cpu_copy(
                machine, side.core, dsts, [request.rx_view], parent=side.span
            )
            request.rx_release()
            remaining -= request.payload_nbytes
        return self.name


def _iovec_pieces(views, chunk: int):
    """Walk an iovec in pieces of at most ``chunk`` bytes."""
    for view in views:
        offset = 0
        while offset < view.nbytes:
            n = min(chunk, view.nbytes - offset)
            yield view.sub(offset, n)
            offset += n
