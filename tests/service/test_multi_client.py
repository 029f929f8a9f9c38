"""Satellite 3: many clients, one coordinator, one shared store.

Real concurrency here — submitter threads with their own sockets,
status pollers hammering the daemon mid-campaign — because the serving
claim is exactly that N clients can share the fleet without tripping
over each other.
"""

import threading
import time

import pytest

from repro.campaign import CampaignSpec
from repro.service.client import ServiceClient
from repro.service.coordinator import Coordinator
from repro.campaign.cache import MemoryStore
from repro.units import KiB

BULK = CampaignSpec(
    name="sweep",
    backends=("default", "knem"),
    sizes=(64 * KiB,),
    seeds=(0, 1),
)

INTERACTIVE = CampaignSpec(
    name="probe", backends=("knem",), sizes=(256 * KiB,), seeds=(0,)
)

FAST = dict(
    lease_ttl=30.0, retry_budget=2, backoff_base=0.01,
    telemetry_interval=0.1,
)


def test_two_submitters_priority_and_cache(tmp_path):
    """The satellite scenario end to end: a bulk sweep queued *first*
    finishes *after* an interactive probe queued second; resubmitting
    either identical spec is 100% store hits for both clients."""
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=1, **FAST
    ) as co:
        co.pause()  # freeze dispatch so both submissions stage
        alice = ServiceClient(co.endpoint, client="alice")
        bob = ServiceClient(co.endpoint, client="bob")

        finished = {}
        errors = []

        def submit_and_watch(client, who, spec, priority):
            try:
                reply = client.submit(spec, priority=priority)
                finished[who + ".sub"] = reply["sub"]
                client.watch(reply["sub"], interval=0.02, timeout=120.0)
                finished[who] = time.time()
            except Exception as exc:  # surface thread failures in the test
                errors.append((who, exc))

        ta = threading.Thread(
            target=submit_and_watch, args=(alice, "alice", BULK, "bulk")
        )
        ta.start()
        while "alice.sub" not in finished:  # bulk is queued first
            time.sleep(0.01)
        tb = threading.Thread(
            target=submit_and_watch,
            args=(bob, "bob", INTERACTIVE, "interactive"),
        )
        tb.start()
        while "bob.sub" not in finished:
            time.sleep(0.01)
        co.resume()
        ta.join(timeout=120)
        tb.join(timeout=120)
        assert errors == []
        assert not (ta.is_alive() or tb.is_alive())

        # The interactive probe settled first despite arriving second.
        assert finished["bob"] <= finished["alice"]
        owners = [s for (_w, s, _h) in co.dispatch_log]
        bob_last = max(i for i, s in enumerate(owners)
                       if s == finished["bob.sub"])
        alice_first = min(i for i, s in enumerate(owners)
                          if s == finished["alice.sub"])
        assert bob_last < alice_first

        # Both clients resubmit their identical specs: zero executions,
        # 100% store hits, instantly settled.
        for client, spec in ((alice, BULK), (bob, INTERACTIVE)):
            reply = client.submit(spec, priority="interactive")
            assert reply["hits"] == reply["trials"] > 0
            assert reply["pending"] == 0
            assert client.status(reply["sub"])["settled"]


def test_concurrent_status_pollers_never_error(tmp_path):
    """Six pollers hammer status/ping while a campaign runs; every
    request gets a well-formed reply on its own connection."""
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=2, **FAST
    ) as co:
        submitter = ServiceClient(co.endpoint, client="submitter")
        reply = submitter.submit(BULK)
        stop = threading.Event()
        errors = []
        polls = [0]

        def poll(i):
            client = ServiceClient(co.endpoint, client=f"poller{i}")
            try:
                while not stop.is_set():
                    doc = client.status()
                    assert doc["name"] == "service"
                    assert isinstance(doc["submissions"], list)
                    client.ping()
                    polls[0] += 1
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=poll, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        co.wait_settled(reply["sub"], timeout=120)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert polls[0] > 0
        assert submitter.fetch(reply["sub"])["summary"]["trials"] == 4


def test_per_client_queue_depth_gauges(tmp_path):
    """Each client's backlog is exported separately."""
    with Coordinator(
        MemoryStore(), tmp_path / "state", local_workers=1, **FAST
    ) as co:
        co.pause()
        a = ServiceClient(co.endpoint, client="alice").submit(BULK)
        b = ServiceClient(co.endpoint, client="bob").submit(INTERACTIVE)
        deadline = time.time() + 10
        while time.time() < deadline:  # tick loop refreshes gauges
            with co._lock:
                alice_depth = co.metrics.gauge(
                    "service.client.alice.queue_depth"
                ).value
                bob_depth = co.metrics.gauge(
                    "service.client.bob.queue_depth"
                ).value
            if (alice_depth, bob_depth) == (4, 1):
                break
            time.sleep(0.02)
        assert (alice_depth, bob_depth) == (4, 1)
        co.resume()
        co.wait_settled(a["sub"], timeout=120)
        co.wait_settled(b["sub"], timeout=120)
