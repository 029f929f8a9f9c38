"""repro.campaign — declarative, cached, parallel experiment campaigns.

The evidence behind the paper is a cross-product — {shm, vmsplice,
KNEM, KNEM+I/OAT} x message sizes x machines x benchmarks — and this
package runs such cross-products as one engine instead of ad-hoc
scripts:

* :mod:`~repro.campaign.spec` — axes -> trials, each with a canonical
  config and a stable content hash; one trial-kind record per workload
  names its runner (:mod:`~repro.campaign.runners`) and the axes it
  reads;
* :mod:`~repro.campaign.executor` — :func:`run_campaign`, the one way
  to run a campaign: multiprocessing pool, per-trial watchdog
  timeouts, worker-death containment, and every finished record
  stored as it lands;
* :mod:`~repro.campaign.cache` — content-addressed result store
  (directory, sqlite or memory backend; re-running a campaign is
  100 % cache hits, and resuming a killed one runs only what had not
  finished);
* :mod:`~repro.campaign.stats` — replicate aggregation and the
  baseline regression gate;
* :mod:`~repro.campaign.suites` — every experiment as specs plus
  named self-checks: the paper's figures, tables, thresholds and
  claims (with margins), and the sched, nhood and offload studies.

CLI: ``repro-bench campaign run|resume|compare|report``
(``run --suite NAME`` runs a suite, ``compare --suite NAME`` gates it).
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.campaign.cache": ("ResultCache",),
    "repro.campaign.executor": ("CampaignRun", "run_campaign"),
    "repro.campaign.spec": (
        "MACHINES",
        "TRIAL_KINDS",
        "CampaignSpec",
        "Trial",
        "canonical_json",
        "group_config",
        "group_label",
        "trial_hash",
    ),
    "repro.campaign.stats": ("CampaignComparison", "aggregate", "compare_campaigns"),
})

__all__ = [
    "CampaignSpec",
    "Trial",
    "trial_hash",
    "canonical_json",
    "group_config",
    "group_label",
    "TRIAL_KINDS",
    "MACHINES",
    "ResultCache",
    "run_campaign",
    "CampaignRun",
    "aggregate",
    "compare_campaigns",
    "CampaignComparison",
]
