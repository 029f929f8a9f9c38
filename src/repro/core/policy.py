"""LMT strategy and threshold selection (Secs. 3.5, 4.4, 6).

Two decisions are made per message:

1. **eager vs rendezvous** — Nemesis historically switches at 64 KiB;
   the paper measures that KNEM already wins at 8-16 KiB point-to-point
   and at 4 KiB inside collectives, so the adaptive mode lowers it.
2. **which LMT backend, with which flags** — including the dynamic
   I/OAT threshold:

   ``DMAmin = cache_size / (2 x processes using the cache)``

   and the Sec. 4.4/6 *collective concurrency hint*: when the upper
   layer reports ``k`` concurrent large transfers, the effective
   threshold drops by that factor (more traffic in flight -> caches and
   bus saturate earlier -> offload pays off sooner).

Fixed modes (used to regenerate each figure's curves):

=================== ====================================================
``default``          double-buffering through shared memory (Nemesis)
``vmsplice``         pipe splice, single copy
``vmsplice-writev``  pipe write, two copies (Fig. 3 baseline)
``vmsplice-dynamic`` vmsplice when no cache is shared, else default
``knem``             KNEM synchronous kernel copy
``knem-async``       KNEM kernel-thread copy (asynchronous)
``knem-ioat``        KNEM + I/OAT, synchronous completion
``knem-ioat-async``  KNEM + I/OAT + in-order status write
``knem-auto``        KNEM; I/OAT iff size >= DMAmin (async I/OAT)
``adaptive``         knem-auto + lowered rendezvous threshold + hint
``vmsplice-ioat``    experimental Sec. 6 future work: pipe splice with
                     DMA-engine drain on the receive side
``dsa``              DSA-class memory-operation engine (modern presets
                     only; see :mod:`repro.core.dsa_lmt`)
``dsa-auto``         DSA iff size >= DMAmin, else KNEM kernel copy
=================== ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.knem_lmt import KnemLmt
from repro.core.lmt import LmtBackend
from repro.core.shm import ShmLmt
from repro.core.vmsplice import VmspliceLmt
from repro.core.vmsplice_ioat import VmspliceIoatLmt
from repro.errors import LmtError
from repro.hw.topology import TopologySpec
from repro.units import KiB

__all__ = ["LmtConfig", "LmtPolicy", "ClusterLmtPolicy", "MODES", "make_policy"]

MODES = (
    "default",
    "vmsplice",
    "vmsplice-writev",
    "vmsplice-dynamic",
    "vmsplice-ioat",
    "knem",
    "knem-async",
    "knem-ioat",
    "knem-ioat-async",
    "knem-auto",
    "adaptive",
    "dsa",
    "dsa-auto",
)

#: Rendezvous threshold used by the adaptive mode ("KNEM starts being
#: interesting near 16 KiB messages", Sec. 3.5).
ADAPTIVE_EAGER = 16 * KiB


@dataclass(frozen=True)
class LmtConfig:
    """Tunable knobs of the LMT layer."""

    mode: str = "default"
    #: Eager/rendezvous switch; None uses the mode's default.
    eager_threshold: Optional[int] = None
    #: I/OAT switch-on size; None computes DMAmin dynamically.
    ioat_threshold: Optional[int] = None
    #: Honour the collective concurrency hint when sizing DMAmin.
    use_collective_hint: bool = True
    #: Under multi-tenant scheduling (:mod:`repro.sched`), count the
    #: ranks of *every* co-located job sharing the receive cache in the
    #: DMAmin denominator — the paper's "processes using the cache" is
    #: a machine-wide count, not a per-job one.  Off, a job sizes its
    #: threshold as if it owned the machine.
    tenancy_aware: bool = True
    #: Enable the KNEM pin-registration cache (an extension beyond the
    #: paper's KNEM 0.5; amortizes repeated pins of reused buffers).
    knem_reg_cache: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise LmtError(f"unknown LMT mode {self.mode!r}; pick one of {MODES}")


class LmtPolicy:
    """Per-message strategy selection for one run.

    ``capabilities`` (anything with ``node_allows(node, cap) -> bool``,
    normally a :class:`repro.faults.FaultState`) arms graceful
    degradation: a mode that asks for a kernel module the node doesn't
    have falls down the chain KNEM -> vmsplice -> shm double-buffering,
    logging one structured downgrade event per communicating pair.
    """

    def __init__(
        self, topo: TopologySpec, config: LmtConfig, capabilities=None
    ) -> None:
        self.topo = topo
        self.config = config
        self.capabilities = capabilities
        #: Structured downgrade events (dicts), one per (pair, from, to).
        self.downgrades: list[dict] = []
        self._downgrade_keys: set = set()
        self._backends: dict[str, LmtBackend] = {}
        for backend in (
            ShmLmt(),
            VmspliceLmt(use_writev=False),
            VmspliceLmt(use_writev=True),
            KnemLmt(ioat=False, async_mode=False),
            KnemLmt(ioat=False, async_mode=True),
            KnemLmt(ioat=True, async_mode=False),
            KnemLmt(ioat=True, async_mode=True),
            VmspliceIoatLmt(),
        ):
            self._backends[backend.name] = backend
        # Deferred import (mirrors the net.lmt pattern below): only a
        # policy construction loads the DSA backend.
        from repro.core.dsa_lmt import DsaLmt

        self._backends["dsa"] = DsaLmt()

    # ------------------------------------------------------------ lookup
    def backend(self, name: str) -> LmtBackend:
        try:
            return self._backends[name]
        except KeyError:
            raise LmtError(f"unknown LMT backend {name!r}") from None

    # -------------------------------------------------------- thresholds
    @property
    def eager_threshold(self) -> int:
        if self.config.eager_threshold is not None:
            return self.config.eager_threshold
        if self.config.mode == "adaptive":
            return ADAPTIVE_EAGER
        return self.topo.params.lmt_threshold

    def dmamin(self, recv_core: int, cache_sharers: int, hint: int = 1) -> int:
        """Effective I/OAT threshold for a message landing on
        ``recv_core`` whose cache is used by ``cache_sharers``
        processes, with ``hint`` concurrent large transfers."""
        if self.config.ioat_threshold is not None:
            base = self.config.ioat_threshold
        else:
            base = self.topo.dmamin_bytes(max(1, cache_sharers))
        if self.config.use_collective_hint and hint > 1:
            base //= hint
        return base

    # ------------------------------------------------------- degradation
    def note_downgrade(
        self,
        pair,
        from_name: str,
        to_name: str,
        reason: str,
        now: float = 0.0,
    ) -> None:
        """Record one structured downgrade event (deduped per unordered
        pair and transition, so steady-state traffic — e.g. both legs of
        a pingpong — doesn't spam the log)."""
        key = (tuple(sorted(pair)) if isinstance(pair, tuple) else pair,
               from_name, to_name)
        if key in self._downgrade_keys:
            return
        self._downgrade_keys.add(key)
        self.downgrades.append(
            {
                "pair": pair,
                "from": from_name,
                "to": to_name,
                "reason": reason,
                "t": now,
            }
        )

    def _degrade(
        self, backend: LmtBackend, node: int, pair, now: float
    ) -> LmtBackend:
        """Walk the chain DSA -> KNEM+I/OAT -> vmsplice -> shm until
        the node's capability mask (and its hardware) admits the
        backend.  The DSA step also runs with no capability mask armed:
        a machine without engines must still fall back."""
        caps = self.capabilities
        name = backend.name
        missing = None
        if name == "dsa":
            if self.topo.params.dsa_engines <= 0:
                missing, name = "dsa engines", "knem+ioat+async"
            elif caps is not None and not caps.node_allows(node, "dsa"):
                missing, name = "dsa", "knem+ioat+async"
        if caps is None:
            if name == backend.name:
                return backend
        else:
            while True:
                if name == "dsa":
                    break  # admitted above
                if name.startswith("knem"):
                    if caps.node_allows(node, "knem"):
                        break
                    missing, name = "knem", "vmsplice"
                elif name.startswith("vmsplice"):
                    if caps.node_allows(node, "vmsplice"):
                        break
                    missing, name = "vmsplice", "shm"
                else:
                    break  # shm needs nothing beyond POSIX shared memory
        if name == backend.name:
            return backend
        self.note_downgrade(
            pair,
            backend.name,
            name,
            f"node {node} lacks {missing}",
            now=now,
        )
        return self._backends[name]

    # ---------------------------------------------------------- selection
    def select(
        self,
        nbytes: int,
        send_core: int,
        recv_core: int,
        cache_sharers: int = 1,
        hint: int = 1,
        node: int = 0,
        pair=None,
        now: float = 0.0,
    ) -> LmtBackend:
        """Pick the backend for one rendezvous transfer, degrading to
        what the node's capability mask actually supports."""
        backend = self._select_mode(nbytes, send_core, recv_core, cache_sharers, hint)
        return self._degrade(backend, node, pair, now)

    def _select_mode(
        self,
        nbytes: int,
        send_core: int,
        recv_core: int,
        cache_sharers: int,
        hint: int,
    ) -> LmtBackend:
        mode = self.config.mode
        if mode == "default":
            return self._backends["shm"]
        if mode == "vmsplice":
            return self._backends["vmsplice"]
        if mode == "vmsplice-writev":
            return self._backends["vmsplice+writev"]
        if mode == "vmsplice-ioat":
            return self._backends["vmsplice+ioat"]
        if mode == "vmsplice-dynamic":
            # Sec. 4.1: "Nemesis should dynamically enable the vmsplice
            # LMT when no cache is shared between the processing cores."
            if self.topo.shares_cache(send_core, recv_core):
                return self._backends["shm"]
            return self._backends["vmsplice"]
        if mode == "knem":
            return self._backends["knem"]
        if mode == "knem-async":
            return self._backends["knem+async"]
        if mode == "knem-ioat":
            return self._backends["knem+ioat"]
        if mode == "knem-ioat-async":
            return self._backends["knem+ioat+async"]
        if mode == "dsa":
            return self._backends["dsa"]
        if mode == "dsa-auto":
            # DSA engine above the dynamic threshold; cache-hot kernel
            # copy below it — the modern restatement of knem-auto.
            if nbytes >= self.dmamin(recv_core, cache_sharers, hint):
                return self._backends["dsa"]
            return self._backends["knem"]
        if mode in ("knem-auto", "adaptive"):
            # KNEM always; I/OAT above the dynamic threshold.  The
            # asynchronous model is enabled by default only with I/OAT
            # (end of Sec. 4.3).
            if nbytes >= self.dmamin(recv_core, cache_sharers, hint):
                return self._backends["knem+ioat+async"]
            return self._backends["knem"]
        raise LmtError(f"unhandled mode {mode!r}")


class ClusterLmtPolicy(LmtPolicy):
    """LmtPolicy extended with the internode dimension.

    Intranode pairs keep the exact mode-driven selection of the base
    class; internode pairs switch at :attr:`net_eager_max` between the
    bounce-buffer eager path and the NIC RDMA rendezvous backend.  A
    node whose capability mask denies ``rdma-reg`` (NIC memory
    registration) degrades to the staged bounce-buffer rendezvous.
    """

    def __init__(
        self, topo: TopologySpec, config: LmtConfig, fabric_params, capabilities=None
    ) -> None:
        super().__init__(topo, config, capabilities=capabilities)
        # Imported here so single-node runs never load the net layer.
        from repro.net.lmt import NicRdmaLmt, NicStagedLmt

        self.fabric = fabric_params
        for backend in (NicRdmaLmt(), NicStagedLmt()):
            self._backends[backend.name] = backend

    @property
    def net_eager_max(self) -> int:
        """Internode eager/rendezvous switch (wire-protocol threshold)."""
        return self.fabric.eager_max

    def select_internode(
        self,
        nbytes: int,
        src_node: int = 0,
        dst_node: int = 0,
        pair=None,
        now: float = 0.0,
    ) -> LmtBackend:
        """Pick the rendezvous backend for an internode transfer."""
        caps = self.capabilities
        if caps is not None:
            for node in (src_node, dst_node):
                if not caps.node_allows(node, "rdma-reg"):
                    self.note_downgrade(
                        pair,
                        "nic+rdma",
                        "nic+staged",
                        f"node {node} lacks rdma-reg",
                        now=now,
                    )
                    return self._backends["nic+staged"]
        return self._backends["nic+rdma"]


def make_policy(topo: TopologySpec, mode: str = "default", **kwargs) -> LmtPolicy:
    """Convenience constructor used by the benchmarks."""
    return LmtPolicy(topo, LmtConfig(mode=mode, **kwargs))
