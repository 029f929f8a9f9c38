"""Session-wide fixtures.

The paper's artifacts are campaign suites whose trials overlap: the
claims read pingpongs that Figs. 3-6 sweep, Fig. 7's fast sweep holds
the claims' 32 KiB alltoalls, and Table 2 reruns Table 1's IS.  The
suite tests run through one memory store for the whole session, so
each trial config is simulated once however many tests read it.
"""

import pytest

from repro.campaign import ResultCache


@pytest.fixture(scope="session")
def suite_store():
    """The session's result store (records are served as copies)."""
    store = ResultCache.open("mem:")
    yield store
    store.close()


@pytest.fixture(scope="session")
def run_suite(suite_store):
    """``run_suite(name)`` through the session store, serially."""
    from repro.campaign.suites import run_suite

    def run(name: str) -> dict:
        return run_suite(name, cache=suite_store)

    return run


@pytest.fixture()
def shared_suite_runs(monkeypatch, run_suite):
    """Route every suite the CLI runs through the session store."""
    from repro.campaign import suites

    monkeypatch.setattr(
        suites, "run_suite", lambda name, cache=None, workers=0: run_suite(name)
    )
