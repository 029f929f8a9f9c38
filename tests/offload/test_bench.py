"""The offload suite document: schema, self-check, rendering."""

import copy
import json
from dataclasses import replace

import pytest

from repro.bench.cli import _print_suite_doc
from repro.bench.harness import sweep_sizes
from repro.campaign.spec import GENERATIONS
from repro.campaign.suites import SUITES, _crossover
from repro.hw import presets
from repro.units import KiB, MiB

from ..campaign.reduced import run_reduced


@pytest.fixture(scope="module")
def doc():
    """A shrunken but real two-generation sweep (smoke-sized)."""
    nehalem, modern = SUITES["offload"].specs
    specs = (
        replace(nehalem, sizes=tuple(sweep_sizes(512 * KiB, 8 * MiB, 1)), reps=1),
        replace(modern, sizes=tuple(sweep_sizes(4 * MiB, 48 * MiB, 1)), reps=1),
    )
    return run_reduced("offload", specs)


def _generations(doc):
    """Per generation: (config of the first trial, metrics in size order,
    sizes, measured crossover)."""
    out = []
    for campaign in doc["campaigns"]:
        trials = sorted(campaign["trials"], key=lambda t: t["config"]["size"])
        gen = trials[0]["config"]["machine_generation"]
        out.append((
            trials[0]["config"],
            [t["metrics"] for t in trials],
            [t["config"]["size"] for t in trials],
            _crossover(doc["campaigns"], gen),
        ))
    return out


def _l2_bytes(config):
    return getattr(presets, config["machine"])().params.l2_bytes


def test_generation_ladder_covers_both_eras():
    assert [g["generation"] for g in GENERATIONS] == ["nehalem-era", "modern"]
    assert GENERATIONS[0]["offload_mode"] == "knem-ioat"
    assert GENERATIONS[1]["offload_mode"] == "dsa"


def test_doc_schema(doc):
    assert doc["kind"] == "suite" and doc["name"] == "offload"
    for config, metrics, sizes, _ in _generations(doc):
        assert len(sizes) == len(metrics) > 0
        for m in metrics:
            assert m["predicted_dmamin"] == _l2_bytes(config) // 4
    # JSON-serializable end to end (the committed artifact).
    json.dumps(doc)


def test_self_check_passes_on_both_generations(doc):
    checks = doc["checks"]
    assert all(checks.values()), checks
    assert checks["nehalem_era_crossover_found"]
    assert checks["modern_crossover_found"]
    assert checks["generations_differ"]


def test_crossover_direction(doc):
    """CPU copy wins the small end, the offload engine the large end,
    and the measured crossover sits inside the swept range."""
    for _, metrics, sizes, crossover in _generations(doc):
        assert metrics[0]["cpu_mib_per_s"] > metrics[0]["offload_mib_per_s"]
        assert metrics[-1]["offload_mib_per_s"] > metrics[-1]["cpu_mib_per_s"]
        assert sizes[0] < crossover <= sizes[-1]


def test_modern_crossover_scales_with_the_cache(doc):
    """The headline number: the modern LLC is 8x the Xeon's, so the
    offload break-even moves up — strictly larger crossover."""
    nehalem, modern = _generations(doc)
    assert _l2_bytes(modern[0]) == 8 * _l2_bytes(nehalem[0])
    assert modern[3] > nehalem[3]
    assert (
        modern[1][0]["predicted_dmamin"]
        == 8 * nehalem[1][0]["predicted_dmamin"]
    )


def test_suite_report_renders_tables_and_checks(doc, capsys):
    _print_suite_doc(doc)
    text = capsys.readouterr().out
    assert "offload/xeon_e5345/knem-ioat/" in text
    assert "offload/modern_server/dsa/" in text
    assert "nehalem-era" in text and "modern" in text
    assert "self-check:" in text and "FAIL" not in text


def test_failed_self_check_is_loud(doc, capsys):
    bad = copy.deepcopy(doc)
    bad["checks"]["generations_differ"] = False
    _print_suite_doc(bad)
    assert "generations_differ=FAIL" in capsys.readouterr().out
