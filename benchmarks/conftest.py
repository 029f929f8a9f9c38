"""Shared fixtures for the paper-artifact benchmarks.

Every benchmark regenerates one table or figure of the paper on the
simulated testbed by running its campaign suite (the fast suites, or
reduced specs of the full ones — the full sweeps are available
through ``repro-bench``).  ``--benchmark-only`` runs them:

    pytest benchmarks/ --benchmark-only
"""

import dataclasses

import pytest

from repro.hw.presets import xeon_e5345


@pytest.fixture(scope="session")
def topo():
    return xeon_e5345()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_specs(suite: str, **axes) -> list[dict]:
    """The campaign documents of ``suite``'s specs with ``axes``
    replaced; fails on any failed trial."""
    from repro.campaign import run_campaign
    from repro.campaign.suites import SUITES

    docs = []
    for spec in SUITES[suite].specs:
        run = run_campaign(dataclasses.replace(spec, **axes))
        assert not run.failures, run.failures
        docs.append(run.document())
    return docs


def run_suite(name: str) -> dict:
    """Suite ``name``'s document; fails on any failed trial."""
    from repro.campaign.suites import run_suite as run

    doc = run(name)
    failed = [t for c in doc["campaigns"] for t in c["trials"] if t["status"] != "ok"]
    assert not failed, failed
    return doc
