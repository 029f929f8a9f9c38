"""Memory-operation offload: DSA-class engines as an LMT backend.

The paper answered "when does offloaded copy beat cache-hot CPU copy"
for a Nehalem-era I/OAT engine; this subpackage re-asks the question on
a modern machine generation.  :mod:`repro.hw.dsa` models the engine
(shared work queues, batch descriptors, poll/interrupt completion);
:class:`~repro.offload.dsa_lmt.DsaLmt` registers it in the Nemesis LMT
chooser next to knem/vmsplice/shm; :mod:`repro.offload.bench` sweeps
message size x backend x machine generation and re-derives DMAmin per
generation (``repro-bench offload`` -> ``BENCH_offload.json``).
"""

from repro import _lazy_exports

# Lazy: the LMT policy loads ``dsa_lmt`` on every construction, and the
# sweep in ``offload.bench`` would drag the benchmark layer in with it.
_lazy_exports(__name__, {
    "repro.offload.bench": ("format_offload_doc", "run_offload_bench"),
    "repro.offload.dsa_lmt": ("DsaLmt",),
})

__all__ = ["DsaLmt", "run_offload_bench", "format_offload_doc"]
