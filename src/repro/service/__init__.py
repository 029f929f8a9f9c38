"""repro.service: the long-running campaign serving layer.

Turns :mod:`repro.campaign` from a one-shot CLI into a daemon: a
:class:`~repro.service.coordinator.Coordinator` accepts campaign specs
over a JSONL socket API, shards trials across attached worker agents
(each an incarnation-tagged lease consumer), and streams progress to
many concurrent clients, deduplicating work fleet-wide through a
pluggable :class:`~repro.service.stores.ResultStore`.

Import structure: the store backends load eagerly (``repro.campaign.cache``
fronts them, so they must not import campaign code), while the
coordinator/client/worker — which *do* import campaign code — resolve
lazily on first access to keep the cycle broken.
"""

from __future__ import annotations

from repro import _lazy_exports
from repro.service.stores import (
    DirectoryStore,
    MemoryStore,
    ResultStore,
    SqliteStore,
    open_store,
)

__all__ = [
    "ResultStore",
    "DirectoryStore",
    "SqliteStore",
    "MemoryStore",
    "open_store",
    "Coordinator",
    "ServiceClient",
    "agent_loop",
]

_lazy_exports(__name__, {
    "repro.service.coordinator": ("Coordinator",),
    "repro.service.client": ("ServiceClient",),
    "repro.service.worker": ("agent_loop",),
})
