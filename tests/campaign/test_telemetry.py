"""Live fleet telemetry: status.json, Prometheus exposition, reporting."""

from repro.bench.cli import main
from repro.campaign import (
    CampaignSpec,
    ResultCache,
    format_status,
    load_status,
    prometheus_lines,
)
from repro.campaign.queue import LeaseQueue
from repro.campaign.telemetry import FleetTelemetry, histogram_summary
from repro.obs import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.coordinator import Coordinator
from repro.units import KiB

SPEC = CampaignSpec(
    name="tele",
    backends=("default",),
    sizes=(64 * KiB,),
    seeds=(0,),
)

FAST = dict(
    local_workers=2, backoff_base=0.01, retry_budget=2,
    telemetry_interval=0.1, name="tele",
)


def _serve(results, state):
    """Run SPEC to completion on a coordinator; stop() flushes the
    final telemetry."""
    with Coordinator(results, state, **FAST) as co:
        reply = ServiceClient(co.endpoint).submit(SPEC)
        co.wait_settled(reply["sub"])
    return reply


def _telemetry(tmp_path, clock, **kwargs):
    metrics = MetricsRegistry()
    metrics.counter("campaign.leases").inc(3)
    metrics.counter("campaign.worker.w0.spawns").inc()  # must be filtered
    metrics.histogram("wall.trial.seconds").observe(0.5)
    return metrics, FleetTelemetry(
        metrics, out_dir=tmp_path, name="tele", clock=clock, **kwargs
    )


# -------------------------------------------------------------- writing
def test_first_tick_writes_then_interval_gates(tmp_path):
    now = [100.0]
    _metrics, tele = _telemetry(tmp_path, lambda: now[0], interval=0.5)
    assert tele.maybe_write() is True  # first call always writes
    assert tele.maybe_write() is False  # same instant: gated
    now[0] += 0.4
    assert tele.maybe_write() is False
    now[0] += 0.2
    assert tele.maybe_write() is True
    assert tele.writes == 2


def test_status_doc_shape_and_worker_filtering(tmp_path):
    now = [100.0]
    _metrics, tele = _telemetry(tmp_path, lambda: now[0])
    tele.write()
    doc = load_status(tmp_path)
    assert doc["kind"] == "fleet-status" and doc["name"] == "tele"
    assert doc["updated_unix"] == 100.0
    assert doc["counters"]["campaign.leases"] == 3
    assert not any(".worker." in k for k in doc["counters"])
    hist = doc["histograms"]["wall.trial.seconds"]
    assert hist["count"] == 1 and hist["p50"] == 0.5
    assert list(tmp_path.glob("*.tmp")) == []  # atomic writers only


def test_queue_and_cache_blocks_mirror_live_state(tmp_path):
    metrics = MetricsRegistry()
    queue = LeaseQueue(["a" * 8, "b" * 8])
    queue.lease("w0", now=1.0, ttl=60.0)
    cache = ResultCache.open(tmp_path / "results")
    cache.get("a" * 8)  # miss
    tele = FleetTelemetry(
        metrics, queues=lambda: [queue], cache=cache, out_dir=tmp_path,
        clock=lambda: 5.0,
    )
    tele.write()
    doc = load_status(tmp_path)
    assert doc["version"] == 2
    assert doc["queue"] == {
        "pending": 1, "leased": 1, "done": 0, "quarantined": 0,
    }
    assert doc["cache"] == {
        "hits": 0, "misses": 1, "corrupt_healed": 0, "hit_rate": 0.0,
    }
    # The same facts land in the registry as gauges.
    snap = metrics.snapshot()
    assert snap["campaign.queue.pending"] == 1
    assert snap["campaign.cache.misses"] == 1


def test_load_status_absent_or_torn_returns_none(tmp_path):
    assert load_status(tmp_path) is None
    (tmp_path / "status.json").write_text('{"torn": ')
    assert load_status(tmp_path) is None


# ----------------------------------------------------------- prometheus
def test_prometheus_rendering_counters_gauges_histograms():
    metrics = MetricsRegistry()
    metrics.counter("campaign.leases").inc(2)
    metrics.gauge("campaign.queue.pending").set(5)
    h = metrics.histogram("wall.trial.seconds")
    h.observe(0.3)  # bucket 2^-1
    h.observe(0.7)  # bucket 2^0
    lines = prometheus_lines(metrics)
    text = "\n".join(lines)
    assert "# TYPE repro_campaign_leases counter" in text
    assert "repro_campaign_leases 2" in text
    assert "# TYPE repro_campaign_queue_pending gauge" in text
    assert "repro_campaign_queue_pending 5" in text
    # Cumulative le buckets, closed by +Inf, plus _sum/_count.
    assert 'repro_wall_trial_seconds_bucket{le="0.5"} 1' in text
    assert 'repro_wall_trial_seconds_bucket{le="1"} 2' in text
    assert 'repro_wall_trial_seconds_bucket{le="+Inf"} 2' in text
    assert "repro_wall_trial_seconds_sum 1" in text  # 1.0 renders as 1
    assert "repro_wall_trial_seconds_count 2" in text


def test_histogram_summary_quantiles():
    h = MetricsRegistry().histogram("x")
    for v in (1, 2, 3, 4, 1024):
        h.observe(v)
    summary = histogram_summary(h)
    assert summary["count"] == 5 and summary["sum"] == 1034
    assert summary["min"] == 1 and summary["max"] == 1024
    assert 1 <= summary["p50"] <= 4
    assert summary["p99"] <= 1024


# ------------------------------------------------------- fleet end-to-end
def test_coordinator_streams_telemetry_files(tmp_path, capsys):
    state = tmp_path / "state"
    reply = _serve(tmp_path / "results", state)
    assert reply["pending"] == 1
    doc = load_status(state)
    assert doc is not None
    assert doc["name"] == "tele"
    assert doc["queue"]["done"] == 1 and doc["queue"]["pending"] == 0
    assert doc["histograms"]["wall.trial.seconds"]["count"] == 1
    assert doc["cache"]["misses"] == 1  # first run: nothing cached
    prom = (state / "metrics.prom").read_text()
    assert "repro_campaign_queue_done 1" in prom
    # The human rendering covers every block without raising...
    text = format_status(doc)
    assert "fleet 'tele'" in text and "wall.trial.seconds" in text
    # ...and is what `campaign report --fleet` prints.
    assert main(["campaign", "report", "--fleet", "--state-dir", str(state)]) == 0
    assert "fleet 'tele'" in capsys.readouterr().out


def test_resume_telemetry_shows_full_cache_hits(tmp_path):
    """The ResultCache hit/miss counters surface through the final
    telemetry flush — a restarted coordinator reports 100% hits."""
    _serve(tmp_path / "results", tmp_path / "state")
    # A real restart is a fresh process: new ResultCache object (fresh
    # counters) over the same store directory and state dir.
    reply = _serve(tmp_path / "results", tmp_path / "state")
    assert reply["hits"] == 1 and reply["pending"] == 0
    doc = load_status(tmp_path / "state")
    assert doc["cache"]["hits"] == 1
    assert doc["cache"]["misses"] == 0
    assert doc["cache"]["hit_rate"] == 1.0
