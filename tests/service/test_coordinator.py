"""Coordinator end-to-end: submit/fetch equivalence, priority, dedup.

These tests run a real coordinator — socket, local agent processes and
all — against the in-memory store: the coordinator is the store's sole
writer (agents report records over the wire), so the memory backing
exercises exactly the code paths a fleet-shared store does.
"""

import threading
import time

import pytest

from repro.campaign import CampaignSpec, canonical_json, run_campaign
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.coordinator import Coordinator
from repro.service.protocol import connect, recv_msg, send_msg
from repro.service.stores import MemoryStore, SqliteStore
from repro.service.worker import agent_loop
from repro.units import KiB

SPEC = CampaignSpec(
    name="svc",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)

#: A different spec (disjoint trial hashes) for priority races.
OTHER = CampaignSpec(name="svc", backends=("knem",), sizes=(256 * KiB,), seeds=(0,))

FAST = dict(
    local_workers=2, lease_ttl=30.0, retry_budget=2, backoff_base=0.01,
    telemetry_interval=0.1,
)


@pytest.fixture
def co(tmp_path):
    with Coordinator(MemoryStore(), tmp_path / "state", **FAST) as c:
        yield c


def client_for(co, name="test"):
    return ServiceClient(co.endpoint, client=name)


def sans_provenance(doc):
    """A document with the cache-provenance fields neutralized.

    ``cached`` flags (and the executed/cache_hits tallies they roll up
    into) record *how* each record arrived — store hit vs fresh run —
    which legitimately differs between a first submission and a
    deduplicated resubmission.  The science (configs, metrics,
    aggregates) must not.
    """
    doc = {**doc, "summary": {**doc["summary"], "executed": 0, "cache_hits": 0}}
    doc["trials"] = [
        {k: v for k, v in t.items() if k != "cached"} for t in doc["trials"]
    ]
    return doc


def test_ping(co):
    pong = client_for(co).ping()
    assert pong["name"] == "service"
    assert pong["uptime"] >= 0


def test_served_document_matches_serial_campaign(co):
    client = client_for(co)
    reply = client.submit(SPEC)
    assert reply["trials"] == 4 and reply["hits"] == 0
    co.wait_settled(reply["sub"])
    doc = client.fetch(reply["sub"])
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_resubmit_is_all_store_hits(co):
    client = client_for(co)
    first = client.submit(SPEC)
    co.wait_settled(first["sub"])
    n_dispatched = len(co.dispatch_log)

    again = client.submit(SPEC)
    assert again["hits"] == again["trials"] == 4
    assert again["pending"] == 0
    status = client.status(again["sub"])
    assert status["settled"] and status["state"] == "done"
    assert len(co.dispatch_log) == n_dispatched  # nothing re-ran
    first_doc = client.fetch(first["sub"])
    again_doc = client.fetch(again["sub"])
    assert all(t["cached"] for t in again_doc["trials"])
    assert canonical_json(sans_provenance(first_doc)) == canonical_json(
        sans_provenance(again_doc)
    )


def test_two_local_agents_lease_each_trial_once(co):
    """Without faults the fleet is pure plumbing: every trial is leased
    exactly once, nothing dies or requeues, and the document is
    byte-identical to a serial run."""
    client = client_for(co)
    reply = client.submit(SPEC)
    co.wait_settled(reply["sub"])
    doc = client.fetch(reply["sub"])
    hashes = sorted(h for (_w, _s, h) in co.dispatch_log)
    assert hashes == sorted(t.hash for t in SPEC.trials())
    assert co.metrics.counter("service.leases").value == 4
    assert co.metrics.counter("service.requeues").value == 0
    assert co.metrics.counter("service.agent_deaths").value == 0
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_restarted_coordinator_on_shared_store_is_all_store_hits(tmp_path):
    """A second coordinator over the first one's store (fresh state
    dir) serves the same submission from the store alone."""
    store = MemoryStore()
    docs = []
    for state in ("s1", "s2"):
        with Coordinator(store, tmp_path / state, **FAST) as co:
            client = client_for(co)
            reply = client.submit(SPEC)
            co.wait_settled(reply["sub"], timeout=30)
            docs.append(client.fetch(reply["sub"]))
    assert reply["hits"] == reply["trials"] == 4
    assert co.dispatch_log == []
    assert docs[1]["summary"]["executed"] == 0
    assert all(t["cached"] for t in docs[1]["trials"])
    assert [t["metrics"] for t in docs[1]["trials"]] == [
        t["metrics"] for t in docs[0]["trials"]
    ]


def test_prepopulated_store_settles_instantly(tmp_path):
    store = MemoryStore()
    for record in run_campaign(SPEC).records:
        store.put(record["hash"], {k: v for k, v in record.items()
                                   if k != "cached"})
    with Coordinator(store, tmp_path / "state", **FAST) as co:
        reply = client_for(co).submit(SPEC)
        assert reply["hits"] == reply["trials"]
        assert client_for(co).status(reply["sub"])["settled"]
        assert co.dispatch_log == []


def test_unknown_submission_rejected(co):
    client = client_for(co)
    with pytest.raises(ServiceError, match="unknown submission"):
        client.status("sub99")
    with pytest.raises(ServiceError, match="unknown submission"):
        client.fetch("sub99")


def test_bad_priority_rejected(co):
    with pytest.raises(ServiceError, match="priority"):
        client_for(co).submit(SPEC, priority="urgent")


def test_bad_spec_rejected(co):
    with pytest.raises(ServiceError):
        client_for(co)._request(
            {"type": "submit", "spec": {"no_such_axis": 1}, "client": "t"}
        )


def test_repeated_axis_value_rejected_on_the_wire(co):
    spec = {**SPEC.to_dict(), "seeds": [1, 1, 1]}
    with pytest.raises(ServiceError, match="campaign axis 'seeds' repeats 1"):
        client_for(co).submit(spec)
    assert co.dispatch_log == []


def test_fetch_before_settled_reports_status(co):
    co.pause()
    reply = client_for(co).submit(SPEC)
    with pytest.raises(ServiceError, match="not settled"):
        client_for(co).fetch(reply["sub"])
    co.resume()
    co.wait_settled(reply["sub"])
    assert client_for(co).fetch(reply["sub"])["summary"]["trials"] == 4


def test_cancel(co):
    co.pause()
    client = client_for(co)
    reply = client.submit(SPEC)
    assert client.cancel(reply["sub"])["state"] == "cancelled"
    assert client.cancel(reply["sub"])["state"] == "cancelled"  # idempotent
    with pytest.raises(ServiceError, match="cancelled"):
        client.fetch(reply["sub"])
    co.resume()


def test_interactive_preempts_bulk_at_trial_boundary(tmp_path):
    """Bulk submitted first, interactive second — the dispatch log must
    show every interactive trial leased before any bulk trial."""
    with Coordinator(
        MemoryStore(), tmp_path / "state", **{**FAST, "local_workers": 1}
    ) as co:
        co.pause()  # stage the race: both submissions queue while frozen
        client = client_for(co)
        bulk = client.submit(SPEC, priority="bulk")
        inter = client.submit(OTHER, priority="interactive")
        co.resume()
        co.wait_settled(bulk["sub"])
        co.wait_settled(inter["sub"])

        owners = [sub_id for (_w, sub_id, _h) in co.dispatch_log]
        assert set(owners) == {bulk["sub"], inter["sub"]}
        last_inter = max(i for i, s in enumerate(owners) if s == inter["sub"])
        first_bulk = min(i for i, s in enumerate(owners) if s == bulk["sub"])
        assert last_inter < first_bulk, (
            f"interactive trials must all dispatch before bulk: {owners}"
        )


def test_identical_concurrent_submissions_execute_once(co):
    """Three-layer dedup: two clients submit the same spec before any
    trial lands; every hash executes exactly once and the second
    submission's records arrive as dedup completions."""
    co.pause()
    a = client_for(co, "alice").submit(SPEC)
    b = client_for(co, "bob").submit(SPEC)
    co.resume()
    co.wait_settled(a["sub"])
    co.wait_settled(b["sub"])

    dispatched = [h for (_w, _s, h) in co.dispatch_log]
    assert len(dispatched) == len(set(dispatched)) == 4  # once per hash
    assert co.metrics.counter("service.dedup_completions").value == 4
    assert canonical_json(
        sans_provenance(client_for(co).fetch(a["sub"]))
    ) == canonical_json(sans_provenance(client_for(co).fetch(b["sub"])))


def test_status_document_shape(co):
    client = client_for(co, "shape")
    reply = client.submit(SPEC)
    co.wait_settled(reply["sub"])
    doc = client.status()
    assert doc["name"] == "service"
    assert [s["sub"] for s in doc["submissions"]] == [reply["sub"]]
    assert doc["store"]["kind"] == "memory"
    assert doc["store"]["records"] == 4
    agents = doc["agents"]
    assert len(agents) == 2 and all(a.startswith("local") for a in agents)


def test_shutdown_via_client(tmp_path):
    co = Coordinator(MemoryStore(), tmp_path / "state", **FAST).start()
    client_for(co).shutdown()
    deadline = time.time() + 10
    while not co.stopping and time.time() < deadline:
        time.sleep(0.05)
    assert co.stopping
    co.stop()  # idempotent
    # The client-triggered stop runs on its own thread; the endpoint
    # file disappears when its cleanup finishes.
    deadline = time.time() + 10
    while (tmp_path / "state" / "service.json").exists():
        assert time.time() < deadline, "endpoint file never removed"
        time.sleep(0.05)


def test_sqlite_backed_coordinator_round_trip(tmp_path):
    """The sqlite store serves the daemon across its threads (the
    connection-handler and tick threads all call in under the lock) and
    persists: a second coordinator on the same file serves the spec as
    pure store hits."""
    db = tmp_path / "results.db"
    with Coordinator(SqliteStore(db), tmp_path / "s1", **FAST) as co:
        reply = client_for(co).submit(SPEC)
        co.wait_settled(reply["sub"])
        doc = client_for(co).fetch(reply["sub"])
        assert doc["summary"]["trials"] == 4
    with Coordinator(SqliteStore(db), tmp_path / "s2", **FAST) as co:
        reply = client_for(co).submit(SPEC)
        assert reply["hits"] == 4 and reply["pending"] == 0
        assert co.dispatch_log == []


def test_telemetry_files_written(co):
    reply = client_for(co).submit(SPEC)
    co.wait_settled(reply["sub"])
    co.stop()  # final flush
    state = co.state_dir
    assert (state / "status.json").exists()
    assert (state / "metrics.prom").exists()
    prom = (state / "metrics.prom").read_text()
    assert "service_submits" in prom.replace(".", "_") or "service" in prom


def test_deterministic_failure_quarantines_after_exact_budget(tmp_path):
    """A trial that always fails (its event budget cannot finish one
    round trip) is leased exactly ``retry_budget`` times, then lands in
    the document as quarantined."""
    doomed = CampaignSpec(
        name="svc", backends=("default",), sizes=(64 * KiB,), seeds=(0,),
        max_events=10,
    )
    with Coordinator(MemoryStore(), tmp_path / "state", **FAST) as co:
        client = client_for(co)
        reply = client.submit(doomed)
        co.wait_settled(reply["sub"])
        doc = client.fetch(reply["sub"])
        assert len(co.dispatch_log) == FAST["retry_budget"] == 2
        assert co.metrics.counter("service.quarantines").value == 1
    assert doc["summary"]["quarantined"] == 1
    assert doc["summary"]["failures"] == 1
    assert doc["quarantined"] == [doomed.trials()[0].hash]
    assert "LivelockError" in doc["trials"][0]["error"]


def test_silent_agent_lease_requeues_after_ttl(tmp_path):
    """A client that attaches, takes one trial and never reports holds
    its lease only until ``lease_ttl``; a fresh agent then settles the
    submission with the serial document."""
    co = Coordinator(
        MemoryStore(), tmp_path / "state",
        **{**FAST, "local_workers": 0, "lease_ttl": 0.3},
    ).start()
    sock, rfile, wfile = connect(co.host, co.port)
    try:
        reply = client_for(co).submit(SPEC)
        send_msg(wfile, {"type": "attach", "agent": "silent"})
        worker = recv_msg(rfile)["worker"]
        send_msg(wfile, {"type": "next", "worker": worker})
        assert recv_msg(rfile)["type"] == "trial"  # ...and never reports
        deadline = time.time() + 10
        while co.metrics.counter("service.requeues").value < 1:
            assert time.time() < deadline, "lease never expired"
            time.sleep(0.05)
        ran = []
        agent = threading.Thread(
            target=lambda: ran.append(agent_loop(co.host, co.port, "fresh"))
        )
        agent.start()
        co.wait_settled(reply["sub"], timeout=120)
        doc = client_for(co).fetch(reply["sub"])
        co.stop()
        agent.join(timeout=30)
        assert ran == [4]
    finally:
        sock.close()
        co.stop()
    assert canonical_json(doc) == canonical_json(run_campaign(SPEC).document())


def test_restarted_coordinator_never_replays_old_journals(tmp_path):
    """A second coordinator on a used state dir must not adopt the
    first one's journal: its trials are ``done`` there but absent from
    the new (empty) store, so replaying it would never settle."""
    state = tmp_path / "state"
    docs = []
    for _ in range(2):
        with Coordinator(MemoryStore(), state, **FAST) as co:
            reply = client_for(co).submit(SPEC)
            assert reply["pending"] == 4
            co.wait_settled(reply["sub"], timeout=30)
            docs.append(client_for(co).fetch(reply["sub"]))
    assert sorted(p.name for p in (state / "subs").iterdir()) == [
        "sub1", "sub2",
    ]
    assert canonical_json(docs[0]) == canonical_json(docs[1])
