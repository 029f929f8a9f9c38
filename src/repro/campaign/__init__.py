"""repro.campaign — declarative, cached, parallel experiment campaigns.

The evidence behind the paper is a cross-product — {shm, vmsplice,
KNEM, KNEM+I/OAT} x message sizes x machines x benchmarks — and this
package runs such cross-products as one engine instead of ad-hoc
scripts:

* :mod:`~repro.campaign.spec` — axes -> trials, each with a canonical
  config and a stable content hash;
* :mod:`~repro.campaign.executor` — multiprocessing pool, per-trial
  watchdog timeouts, worker-death containment (one-shot local runs);
* :mod:`~repro.campaign.cache` — content-addressed result store
  (directory, sqlite or memory backend; re-running a campaign is
  100 % cache hits);
* :mod:`~repro.campaign.stats` — replicate aggregation and the
  baseline regression gate;
* :mod:`~repro.campaign.suites` — the committed sched, nhood and
  offload experiments: specs plus named self-checks;
* :mod:`~repro.campaign.queue` — in-memory lease queue: per-trial
  state machine with retry budgets, backoff and quarantine;
* :mod:`~repro.campaign.telemetry` — live fleet status: atomic
  ``status.json`` + Prometheus text exposition rewritten while the
  queues drain.

The queue and the telemetry serve :mod:`repro.service`, whose
coordinator is the crash-tolerant, multi-client execution path (lease
requeue on agent death, retry budgets, quarantine).

CLI: ``repro-bench campaign run|resume|compare|report``
(``run --suite NAME`` runs a committed suite; ``report --fleet`` reads
the coordinator's telemetry files).
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.campaign.cache": ("ResultCache",),
    "repro.campaign.executor": ("CampaignRun", "run_campaign", "run_trial"),
    "repro.campaign.queue": ("Lease", "LeaseQueue"),
    "repro.campaign.spec": (
        "MACHINES",
        "WORKLOADS",
        "CampaignSpec",
        "Trial",
        "canonical_json",
        "group_config",
        "group_label",
        "trial_hash",
    ),
    "repro.campaign.stats": ("CampaignComparison", "aggregate", "compare_campaigns"),
    "repro.campaign.telemetry": (
        "FleetTelemetry",
        "format_status",
        "load_status",
        "prometheus_lines",
    ),
})

__all__ = [
    "CampaignSpec",
    "Trial",
    "trial_hash",
    "canonical_json",
    "group_config",
    "group_label",
    "WORKLOADS",
    "MACHINES",
    "ResultCache",
    "run_trial",
    "run_campaign",
    "CampaignRun",
    "LeaseQueue",
    "Lease",
    "aggregate",
    "compare_campaigns",
    "CampaignComparison",
    "FleetTelemetry",
    "prometheus_lines",
    "load_status",
    "format_status",
]
