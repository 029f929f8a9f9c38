"""Run a committed suite with reduced specs (smaller sweeps, same checks)."""

from dataclasses import replace

import pytest

from repro.campaign.suites import SUITES, run_suite


def run_reduced(name: str, specs: tuple) -> dict:
    """:func:`run_suite` of suite ``name`` with ``specs`` in place of
    its committed ones."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(SUITES, name, replace(SUITES[name], specs=specs))
        return run_suite(name)
