"""The DSA LMT backend: large messages moved by a memory-operation engine.

Protocol shape is KNEM's (the cookie rides the ordinary Nemesis
rendezvous, the receiver drives the transfer), but the data path is a
DSA-class engine (``machine.dsa``, a :class:`~repro.hw.dma.DmaEngine`)
and submission bypasses the kernel: once both buffers are pinned, the
receiver ENQCMDs batch descriptors straight into a shared work queue —
no ioctl per transfer, one doorbell per batch.

Completion follows the machine's configured mode:

- ``"poll"``: the receiver spins on the completion record
  (``busy_poll_wait`` with the DSA poll period — CPU busy, low latency);
- ``"interrupt"``: the receiver sleeps and pays the interrupt wakeup
  latency once (CPU idle).

Like KNEM+I/OAT, the copy bypasses the caches entirely, so a DSA
transfer evicts nothing from a co-running victim's L2 — the property
the tenancy tests pin down.
"""

from __future__ import annotations

from repro.core.lmt import LmtBackend, TransferSide, busy_poll_wait
from repro.errors import LmtError
from repro.kernel.copy import dma_copy

__all__ = ["DsaLmt"]


class DsaLmt(LmtBackend):
    """Single-copy transfers through the socket's DSA engines."""

    name = "dsa"
    receiver_sends_done = True  # the engine reads the sender's pages

    # ------------------------------------------------------------ sender
    def sender_start(self, side: TransferSide):
        # Declare (pin + cookie) through the KNEM plumbing: a modern
        # stack still needs the one-time cross-process window setup.
        knem = side.world.knem_of(side.rank)
        cookie = yield from knem.send_cmd(side.core, side.views, parent=side.span)
        return {"cookie": cookie}

    def sender_on_cts(self, side: TransferSide, cts_info: dict):
        # The receiver drives the whole transfer.
        yield from ()

    # ---------------------------------------------------------- receiver
    def receiver_transfer(self, side: TransferSide, rts_info: dict):
        knem = side.world.knem_of(side.rank)
        machine = side.machine
        dsa = machine.dsa
        if dsa is None:
            raise LmtError(
                f"{machine.topo.name} has no DSA engines "
                "(params.dsa_engines == 0)"
            )
        cookie_id = rts_info.get("cookie")
        if cookie_id is None:
            raise LmtError("DSA RTS carried no cookie")
        cookie = knem.cookie(cookie_id)

        obs = side.engine.obs
        span = None
        if obs.enabled:
            span = obs.begin(
                "dsa.recv", kind="cmd", track=f"core{side.core}",
                parent=side.span, cookie=cookie_id, nbytes=side.nbytes,
            )

        # The engine reads/writes user pages: pin the receive side
        # (the send side was pinned at declare time).
        yield from knem.pin(side.core, side.views, parent=span)

        # User-space ENQCMD: one doorbell per batch, no syscall.
        request = yield from dma_copy(
            dsa, side.core, list(side.views), cookie.views, span=span
        )

        if machine.params.dsa_completion == "interrupt":
            yield request.done
            yield machine.params.dsa_interrupt_latency
        else:
            yield from busy_poll_wait(
                machine, side.core, request.done,
                quantum=10 * machine.params.dsa_poll_period,
            )
        knem.consume(cookie_id)
        obs.end(span)
        return self.name
