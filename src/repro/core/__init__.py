"""The paper's contribution: the Large Message Transfer (LMT) framework.

MPICH2-Nemesis routes every large intranode message through an internal
LMT interface so the best transfer mechanism can be chosen per message
(Sec. 2).  This package provides:

- :mod:`~repro.core.lmt` — the backend interface and transfer contexts;
- :mod:`~repro.core.shm` — the *default* double-buffering backend
  (two pipelined CPU copies through a shared-memory ring);
- :mod:`~repro.core.vmsplice` — the pipe-splice single-copy backend
  (plus its two-copy ``writev`` variant for the Fig. 3 comparison);
- :mod:`~repro.core.knem_lmt` — the KNEM backend: synchronous kernel
  copy, asynchronous kernel-thread copy, and I/OAT offload with the
  dynamic ``DMAmin`` threshold;
- :mod:`~repro.core.vmsplice_ioat` and :mod:`~repro.core.dsa_lmt` — the
  two other offloaded backends: vmsplice with an I/OAT drain (Sec. 6
  future work) and a DSA-class engine on modern presets (loaded by the
  policy on construction);
- :mod:`~repro.core.policy` — strategy/threshold selection (Sec. 3.5),
  including the collective-concurrency hint (Secs. 4.4, 6);
- :mod:`~repro.core.autotune` — empirical crossover search reproducing
  the observed 1 MiB / 2 MiB / +50 % thresholds.
"""

from repro.core.knem_lmt import KnemLmt
from repro.core.lmt import LmtBackend, TransferSide
from repro.core.policy import LmtConfig, LmtPolicy, MODES, make_policy
from repro.core.shm import ShmLmt
from repro.core.vmsplice import VmspliceLmt

__all__ = [
    "LmtBackend",
    "TransferSide",
    "ShmLmt",
    "VmspliceLmt",
    "KnemLmt",
    "LmtConfig",
    "LmtPolicy",
    "MODES",
    "make_policy",
]
