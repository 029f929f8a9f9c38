"""Worker agents: external attach, incarnation tags, chaos-kill recovery."""

import threading
import time

import pytest

from repro.campaign import CampaignSpec, canonical_json, run_campaign
from repro.campaign.executor import POOL_KILL_ENV
from repro.service.client import ServiceClient
from repro.service.coordinator import Coordinator
from repro.service.protocol import connect, recv_msg, send_msg
from repro.campaign.cache import MemoryStore
from repro.service.worker import agent_loop
from repro.units import KiB

SPEC = CampaignSpec(
    name="svc",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)

FAST = dict(
    lease_ttl=30.0, retry_budget=2, backoff_base=0.01,
    telemetry_interval=0.1,
)


def test_external_agent_drains_campaign(tmp_path):
    """A coordinator with no local pool is fully served by an attached
    external agent (the ``repro-bench service worker`` path)."""
    co = Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=0, **FAST
    ).start()
    try:
        reply = ServiceClient(co.endpoint).submit(SPEC)
        ran = []
        agent = threading.Thread(
            target=lambda: ran.append(
                agent_loop(co.host, co.port, "bench-node2")
            )
        )
        agent.start()
        co.wait_settled(reply["sub"], timeout=120)
        co.stop()  # the agent's next pull returns "shutdown"
        agent.join(timeout=30)
        assert ran == [4]
        workers = {w for (w, _s, _h) in co.dispatch_log}
        assert workers == {"bench-node2.1"}
    finally:
        co.stop()


def test_agents_are_incarnation_tagged(tmp_path):
    """Two attaches under one name get distinct worker ids — a
    reattached (restarted) agent can never be mistaken for its own
    previous life when stale reports arrive."""
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=0, **FAST
    ) as co:
        ids = []
        for _ in range(2):
            sock, rfile, wfile = connect(co.host, co.port)
            send_msg(wfile, {"type": "attach", "agent": "ext"})
            ids.append(recv_msg(rfile)["worker"])
            sock.close()
        assert ids == ["ext.1", "ext.2"]


def test_agent_max_trials_detaches_cleanly(tmp_path):
    """A bounded agent hands back the fleet mid-campaign; a successor
    (fresh incarnation) finishes the rest."""
    co = Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=0, **FAST
    ).start()
    try:
        reply = ServiceClient(co.endpoint).submit(SPEC)
        first = agent_loop(co.host, co.port, "batch", max_trials=2)
        assert first == 2
        status = ServiceClient(co.endpoint).status(reply["sub"])
        assert status["done"] == 2 and not status["settled"]
        rest = []
        agent = threading.Thread(
            target=lambda: rest.append(agent_loop(co.host, co.port, "batch"))
        )
        agent.start()
        co.wait_settled(reply["sub"], timeout=120)
        co.stop()
        agent.join(timeout=30)
        assert rest == [2]
        workers = {w for (w, _s, _h) in co.dispatch_log}
        assert workers == {"batch.1", "batch.2"}
    finally:
        co.stop()


def test_chaos_killed_local_agents_requeue_and_recover(tmp_path, monkeypatch):
    """The acceptance scenario: injected worker death mid-campaign.

    Every trial hash matches the kill list, so each local agent is
    SIGKILLed by ``run_trial``'s chaos hook on its first dispatch.  The
    dropped socket requeues the lease, the tick loop respawns the slot
    with the hook *defused*, and the campaign completes with a document
    byte-identical to a serial run — deaths are invisible in the
    science.
    """
    monkeypatch.setenv(POOL_KILL_ENV, ",".join("0123456789abcdef"))
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=2, **FAST
    ) as co:
        client = ServiceClient(co.endpoint)
        reply = client.submit(SPEC)
        co.wait_settled(reply["sub"], timeout=120)

        assert co.metrics.counter("service.requeues").value >= 1
        assert co.metrics.counter("service.local_agent_deaths").value >= 1
        assert co.metrics.counter("service.agent_deaths").value >= 1
        doc = client.fetch(reply["sub"])
        assert doc["summary"]["quarantined"] == 0
    # The chaos detour never reaches the document: byte-identical to a
    # serial, chaos-free campaign run (compared outside the env patch).
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_agent_killed_mid_trial_recovers_byte_identical(tmp_path, monkeypatch):
    """One injected death on one trial: the lone local agent dies with
    that trial leased, the lease is requeued, and the respawned agent
    runs it again — exactly one death, one requeue, one re-dispatch."""
    doomed = SPEC.trials()[0].hash
    monkeypatch.setenv(POOL_KILL_ENV, doomed)
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=1, **FAST
    ) as co:
        client = ServiceClient(co.endpoint)
        reply = client.submit(SPEC)
        co.wait_settled(reply["sub"], timeout=120)
        assert co.metrics.counter("service.local_agent_deaths").value == 1
        assert co.metrics.counter("service.requeues").value == 1
        assert co.metrics.counter("service.agent_spawns").value == 2
        runs = [h for (_w, _s, h) in co.dispatch_log]
        assert runs.count(doomed) == 2
        assert len(runs) == len(SPEC.trials()) + 1
        doc = client.fetch(reply["sub"])
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_local_agent_killed_before_first_lease_is_respawned(tmp_path):
    """A local agent that dies before it ever holds a lease is
    respawned by the tick loop; the new incarnation drains the
    submission and the document matches a serial run."""
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=1, **FAST
    ) as co:
        (first,) = co._local_procs
        first.kill()
        deadline = time.time() + 30
        while co.metrics.counter("service.agent_spawns").value < 2:
            assert time.time() < deadline, "dead agent never respawned"
            time.sleep(0.05)
        assert co.metrics.counter("service.local_agent_deaths").value == 1
        client = ServiceClient(co.endpoint)
        reply = client.submit(SPEC)
        co.wait_settled(reply["sub"], timeout=120)
        assert co.metrics.counter("service.requeues").value == 0
        assert len(co.dispatch_log) == len(SPEC.trials())
        doc = client.fetch(reply["sub"])
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_agent_survives_idle_then_serves_late_submission(tmp_path):
    """An agent attached before any work exists must idle-poll, then
    pick up a submission that arrives later."""
    co = Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=0, **FAST
    ).start()
    try:
        ran = []
        agent = threading.Thread(
            target=lambda: ran.append(agent_loop(co.host, co.port, "early",
                                                 poll=0.01))
        )
        agent.start()
        time.sleep(0.1)  # let it idle at least once
        reply = ServiceClient(co.endpoint).submit(SPEC)
        co.wait_settled(reply["sub"], timeout=120)
        co.stop()
        agent.join(timeout=30)
        assert ran == [4]
    finally:
        co.stop()
