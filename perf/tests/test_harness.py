"""Golden checks, failure counting and seeding of the benchmark harness."""

import json
import random
from dataclasses import replace

import pytest

import hostspeed
import workloads
from layertrace import Tracer, layer_metrics, probes
from worker import ROOT, Runner, measure

GOLDEN = json.loads(workloads.GOLDEN.read_text())


def _light_p2p_ops():
    """The p2p sweeps other than the default mode's, which take longest."""
    return [op for op in workloads.build("p2p", 0, None).ops if "/default/" not in op.name]


def test_traced_p2p_op_reproduces_its_golden_output():
    op = workloads.build("p2p", 0, None).first
    tracer = Tracer()
    tracer.install(probes())
    try:
        outputs = op.run()
    finally:
        tracer.uninstall()
    assert workloads.check(outputs, GOLDEN, op.keys) == []
    assert tracer.stat("sim.engine.step").count("executed") > 0
    assert tracer.stat("hw.dma").calls > 0
    assert tracer.stat("kernel.knem").calls > 0


def test_mismatches_and_exceptions_count_as_failures():
    runner = Runner(GOLDEN)
    good = workloads.build("alltoall", 0, None).first
    wrong = replace(good, run=lambda: {good.name: ["0.0", "0.0"]})
    missing = replace(good, run=lambda: {})

    def boom():
        raise RuntimeError("simulated crash")

    assert runner.run(good) is not None
    assert runner.run(wrong) is None
    assert runner.run(missing) is None
    assert runner.run(replace(good, run=boom)) is None
    assert (runner.attempted, runner.failed) == (4, 3)
    assert "differ from golden.json" in runner.errors[0]
    assert good.name in runner.errors[1]
    assert "simulated crash" in runner.errors[2]


def test_measure_runs_the_given_rounds_and_scales_by_host_speed(monkeypatch):
    def op(i):
        def run():
            sum(range(20000 * i))  # some wall time to scale
            return {}

        return workloads.Op(f"op{i}", run, ())

    ops = [op(i) for i in range(1, 4)]
    runner = Runner(GOLDEN)
    # A host running at half the reference speed throughout.
    monkeypatch.setattr(hostspeed.HostSpeed, "sample", lambda self: 2 * hostspeed.REFERENCE_S)
    metrics = measure(workloads.Workload(ops, first=ops[0]), runner, seed=0, rounds=4)
    assert (runner.attempted, runner.failed) == (3 + 3 * 4, 0)
    assert set(metrics) == {"round_s", "peak_rss_mib", "round_wall_s"}
    assert metrics["round_s"] == pytest.approx(metrics["round_wall_s"] / 2)


def test_seed_changes_op_order_but_not_outputs():
    ops = _light_p2p_ops()
    orders, outputs = [], []
    for seed in (0, 1):
        order, out = [], {}

        def recorded(op):
            def run():
                order.append(op.name)
                result = op.run()
                out.update(result)
                return result
            return replace(op, run=run)

        runner = Runner(GOLDEN)
        runner.round([recorded(op) for op in ops], random.Random(seed))
        assert runner.failed == 0
        orders.append(order)
        outputs.append(out)
    assert sorted(orders[0]) == sorted(orders[1])
    assert orders[0] != orders[1]
    assert outputs[0] == outputs[1]


def test_campaign_noise_seeds_follow_the_seed_and_stay_golden(tmp_path):
    assert workloads.noise_seeds(0) != workloads.noise_seeds(1)
    workload = workloads.build("campaign", 1, tmp_path / "campaign")
    try:
        runner = Runner(GOLDEN)
        for op in workload.ops:  # the cold pass, then resumes from its store
            runner.run(op)
        assert (runner.attempted, runner.failed) == (2, 0), runner.errors
    finally:
        workload.close()
    assert not (tmp_path / "campaign").exists()


def test_benchmark_json_names_what_the_benchmark_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = layer_metrics(Tracer(), rounds=1, traced_round_s=1.0, untraced_round_s=1.0)
    assert {m["name"] for m in bench["per_layer"]} == set(reported)
    assert {m["name"] for m in bench["end_to_end"]} == {"round_s", "peak_rss_mib", "setup_s"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_key_an_op_must_produce_has_a_golden_entry(name, tmp_path):
    workload = workloads.build(name, 0, tmp_path / "campaign")
    try:
        assert all(key in GOLDEN for op in workload.ops for key in op.keys)
    finally:
        workload.close()
