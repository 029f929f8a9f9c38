"""Seed determinism: identical JobMix + seed => byte-identical schedule,
per-job metrics, and BENCH_sched.json document."""

import json
from dataclasses import replace

from repro.campaign.suites import SUITES
from repro.hw import nehalem8
from repro.sched import JobMix, Scheduler, mix_jobs
from repro.units import MiB

from ..campaign.reduced import run_reduced


def _dumps(doc):
    return json.dumps(doc, sort_keys=True)


def test_jobmix_expansion_is_seed_deterministic():
    a = JobMix(seed=7, njobs=6).jobs()
    b = JobMix(seed=7, njobs=6).jobs()
    assert a == b
    assert JobMix(seed=8, njobs=6).jobs() != a


def test_mix_jobs_deterministic_for_every_mix():
    for mix in ("pair", "trio", "random", "nhood", "queue"):
        assert mix_jobs(mix, seed=3) == mix_jobs(mix, seed=3)


def test_schedule_and_metrics_byte_identical():
    def once():
        result = Scheduler(nehalem8(), policy="backfill").run(
            JobMix(seed=11, njobs=4, arrival_spacing=100e-6).jobs()
        )
        return _dumps(result.document()), _dumps(result.metrics)

    doc1, met1 = once()
    doc2, met2 = once()
    assert doc1 == doc2
    assert met1 == met2


def test_bench_document_byte_identical():
    # 1 MiB aggressor messages keep the double run fast; determinism
    # is the point.
    interference, policies = SUITES["sched"].specs
    specs = (replace(interference, sizes=(1 * MiB,)), policies)
    doc1 = run_reduced("sched", specs)
    doc2 = run_reduced("sched", specs)
    assert _dumps(doc1) == _dumps(doc2)
