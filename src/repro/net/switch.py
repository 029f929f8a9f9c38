"""A single crossbar switch with configurable egress contention.

Three models, picked by :attr:`repro.net.fabric.FabricParams.contention`:

``"output"``
    Output-queued crossbar: each egress port drains its own FIFO at
    ``port_rate``.  Incast (many senders, one receiver) serializes at
    the victim's port; disjoint pairs don't interact.  The default.
``"bus"``
    One shared FIFO for the whole switch — every flow serializes, the
    internode analogue of the intranode shared-DRAM-bus bottleneck.
``"ideal"``
    Latency only, infinite bandwidth inside the switch.  Useful for
    isolating NIC/protocol costs in experiments.

All three preserve per-(src, dst) descriptor order, which the NIC RX
side relies on (``desc is request.descriptors[-1]`` detects the tail).

With a fault state armed (see :mod:`repro.faults`) the switch is where
wire-level faults strike: a descriptor entering from a flapped or lossy
link is silently discarded (the sender's retransmission timer recovers
it), and a corrupted one is forwarded but flagged so the receiving NIC
discards the delivery at its integrity check.
"""

from __future__ import annotations

from repro.sim.resources import Channel

__all__ = ["Switch"]


class Switch:
    """The fabric's single forwarding element."""

    def __init__(self, engine, nports: int, params, faults=None) -> None:
        self.engine = engine
        self.nports = nports
        self.params = params
        self.faults = faults
        self.nics: list = []
        #: Bytes forwarded out of each egress port (diagnostics).
        self.port_bytes = [0] * nports
        if params.contention == "output":
            self._queues = [
                Channel(engine, name=f"switch.port{p}") for p in range(nports)
            ]
            for port, queue in enumerate(self._queues):
                engine.process(
                    self._drain(queue), name=f"switch.port{port}", daemon=True
                )
        elif params.contention == "bus":
            queue = Channel(engine, name="switch.bus")
            self._queues = [queue] * nports
            engine.process(self._drain(queue), name="switch.bus", daemon=True)
        else:  # "ideal"
            self._queues = None

    def bind(self, nics) -> None:
        """Attach the ports (one NIC per port); called by the fabric."""
        self.nics = list(nics)

    # ------------------------------------------------------------ path
    def ingress(self, src_node: int, request, desc, attempt: int = 0) -> None:
        """A descriptor left ``src_node``'s NIC onto the wire.

        ``attempt`` is the sender's transmission attempt number; it
        rides with the packet so the receiving NIC can tell a
        retransmission's descriptors from the prior attempt's.
        """
        p = self.params
        corrupt = False
        if self.faults is not None:
            f = self.faults
            now = self.engine.now
            dst = request.dst_node
            if not f.link_up(src_node, dst, now):
                f.note_flap_drop()
                self._emit_fault("fault.flap", src_node, request, desc)
                return  # the link is down; the descriptor is lost
            if f.should_drop(src_node, dst, now):
                self._emit_fault("fault.drop", src_node, request, desc)
                return
            corrupt = f.should_corrupt(src_node, dst, now)
            if corrupt:
                self._emit_fault("fault.corrupt", src_node, request, desc)
        # Propagation to the switch + the forwarding decision.
        self.engine.schedule(
            p.link_latency + p.switch_latency,
            self._forward,
            request,
            desc,
            corrupt,
            attempt,
        )

    def _emit_fault(self, kind: str, src_node: int, request, desc) -> None:
        obs = self.engine.obs
        if obs.enabled:
            obs.instant(
                kind, track="switch", parent=request.span,
                src=src_node, dst=request.dst_node, nbytes=desc.nbytes,
                req=request.kind, seq=request.seq,
            )

    def _forward(self, request, desc, corrupt: bool = False, attempt: int = 0) -> None:
        if self._queues is None:
            # Ideal: no egress serialization, just the last hop.
            self._deliver(request, desc, corrupt, attempt)
            return
        self._queues[request.dst_node].put((request, desc, corrupt, attempt))

    def _drain(self, queue: Channel):
        rate = self.params.port_rate
        while True:
            request, desc, corrupt, attempt = yield queue.get()
            yield desc.nbytes / rate
            self._deliver(request, desc, corrupt, attempt)

    def _deliver(self, request, desc, corrupt: bool = False, attempt: int = 0) -> None:
        self.port_bytes[request.dst_node] += desc.nbytes
        # Propagation on the egress link; the port is free meanwhile.
        self.engine.schedule(
            self.params.link_latency,
            self.nics[request.dst_node].rx,
            request,
            desc,
            corrupt,
            attempt,
        )
