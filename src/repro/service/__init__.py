"""repro.service: the long-running campaign serving layer.

Turns :mod:`repro.campaign` from a one-shot CLI into a daemon: a
:class:`~repro.service.coordinator.Coordinator` accepts campaign specs
over a JSONL socket API, shards trials across attached worker agents
(each an incarnation-tagged lease consumer), and streams progress to
many concurrent clients, deduplicating work fleet-wide through one
shared :class:`~repro.campaign.cache.ResultCache`.
"""

from __future__ import annotations

from repro import _lazy_exports

__all__ = [
    "Coordinator",
    "ServiceClient",
    "agent_loop",
]

_lazy_exports(__name__, {
    "repro.service.coordinator": ("Coordinator",),
    "repro.service.client": ("ServiceClient",),
    "repro.service.worker": ("agent_loop",),
})
