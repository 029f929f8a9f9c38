"""The campaign coordinator: a long-running, multi-client serving daemon.

One :class:`Coordinator` turns the one-shot campaign stack into a
service.  Clients submit :class:`~repro.campaign.spec.CampaignSpec`\\ s
over the JSONL socket API; each submission gets its own in-memory
:class:`~repro.campaign.queue.LeaseQueue`, and *worker agents* — local
processes the coordinator spawns, plus any number of externally
attached ``repro-bench service worker`` processes — pull trials one at
a time over the same socket.  The coordinator is the sole writer of the
shared :class:`~repro.campaign.cache.ResultCache`: agents report
records over the wire, which is what lets the in-memory store serve
single-process tests through exactly the code paths the sqlite store
serves a fleet.

Scheduling is a two-level priority queue: every ``next`` request scans
*interactive* submissions (FIFO) before *bulk* ones, so an interactive
submission preempts a long bulk sweep at the next trial boundary — no
mid-trial kills, just pull-ordering.  Fleet-wide dedup has three
layers: records already in the store are served at submit time; a trial
in flight for one submission is never leased again for another (the
``skip`` set); and a landing report completes the same hash in every
other submission's queue (``dedup`` completions).

This is the crash-tolerant execution path (one-shot local runs use
:func:`~repro.campaign.executor.run_campaign`'s process pool).  An
agent that dies (socket EOF, process exit, lease deadline) requeues its
trials for free; a trial that *reports* failure consumes the
per-submission retry budget and quarantines after ``retry_budget``
attempts.  Local agents that died to the ``REPRO_CHAOS_KILL`` hook are
respawned with the hook defused, so injected kills prove recovery
without livelocking the fleet.  The queues live in memory only: a
restarted coordinator recovers through the store, serving a resubmitted
spec's stored trials as hits and re-running whatever the store lacks.

The finished document (``fetch``) is assembled through
:class:`~repro.campaign.executor.CampaignRun`, so it is byte-identical
to the same spec run via serial ``campaign run``.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CampaignRun
from repro.campaign.queue import LeaseQueue
from repro.campaign.spec import CampaignSpec, Trial
from repro.campaign.telemetry import FleetTelemetry
from repro.errors import ServiceError
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import (
    DEFAULT_HOST,
    PROTOCOL_VERSION,
    ENDPOINT_FILE,
    recv_msg,
    send_msg,
    write_endpoint,
)

__all__ = ["Coordinator", "PRIORITIES", "Submission"]

#: Dispatch classes, scanned in this order: every ``next`` request
#: offers all interactive work before any bulk work.
PRIORITIES = ("interactive", "bulk")

#: Submission lifecycle states.
SUB_STATES = ("running", "done", "cancelled")


@dataclass
class Submission:
    """One client-submitted campaign and its dispatch state."""

    sub_id: str
    client: str
    priority: str
    spec: CampaignSpec
    trials: list[Trial]
    queue: LeaseQueue
    #: Trial hash -> finished record (with the ``cached`` flag set).
    records: dict[str, dict] = field(default_factory=dict)
    #: Trial hash -> canonical config (dispatch lookup).
    configs: dict[str, dict] = field(default_factory=dict)
    #: Store hits served at submit time.
    hits: int = 0
    state: str = "running"
    created: float = 0.0
    #: Wall clock of the first record landing (tail-latency metric).
    first_result_t: Optional[float] = None

    @property
    def settled(self) -> bool:
        return all(t.hash in self.records for t in self.trials)

    def status(self) -> dict:
        q = self.queue
        return {
            "sub": self.sub_id,
            "client": self.client,
            "priority": self.priority,
            "name": self.spec.name,
            "state": self.state,
            "trials": len(self.trials),
            "hits": self.hits,
            "done": len(self.records),
            "pending": len(q.pending),
            "leased": len(q.leased),
            "quarantined": len(q.quarantined),
            "settled": self.settled,
        }


class Coordinator:
    """The serving daemon.  ``start()`` it, ``stop()`` it; everything
    in between arrives over the socket."""

    def __init__(
        self,
        store,
        state_dir: str | Path,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        local_workers: int = 2,
        lease_ttl: float = 60.0,
        retry_budget: int = 3,
        backoff_base: float = 0.05,
        poll: float = 0.02,
        telemetry_interval: float = 0.5,
        trace_dir: Optional[str] = None,
        name: str = "service",
    ) -> None:
        #: ``store`` is an open :class:`ResultCache` or a URL for
        #: :meth:`ResultCache.open`.
        self.cache = store if isinstance(store, ResultCache) else ResultCache.open(store)
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.local_workers = local_workers
        self.lease_ttl = lease_ttl
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.poll = poll
        self.trace_dir = trace_dir
        self.name = name

        self.metrics = MetricsRegistry()
        self.telemetry = FleetTelemetry(
            self.metrics,
            queues=lambda: [s.queue for s in self._submissions.values()],
            cache=self.cache,
            out_dir=self.state_dir,
            name=name,
            interval=telemetry_interval,
        )

        self._lock = threading.RLock()
        self._submissions: dict[str, Submission] = {}
        self._sub_seq = 0
        #: Trial hash -> sub_id currently executing it (cross-submission
        #: in-flight dedup: never lease a hash twice concurrently).
        self._inflight: dict[str, str] = {}
        #: worker id -> {(sub_id, hash): live Lease} — what dies with it.
        self._agent_leases: dict[str, dict] = {}
        #: Wall clock each in-flight (sub, hash) was dispatched at.
        self._dispatch_t: dict[tuple, float] = {}
        #: Agent name -> incarnation counter (attach-time tagging).
        self._incarnations: dict[str, int] = {}
        #: Test hook: every dispatch as (worker, sub_id, hash).
        self.dispatch_log: list[tuple] = []
        #: Test hook: freeze dispatch (agents poll idle) without
        #: stopping submissions — lets tests stage a priority race.
        self._paused = False

        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._local_procs: list = []
        self._local_deaths = 0
        self._stopping = False
        self._started = False
        self._t0 = 0.0
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "Coordinator":
        """Bind, advertise, spawn local agents, begin serving."""
        if self._started:
            raise ServiceError("coordinator already started")
        self._started = True
        self._t0 = time.time()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self._requested_port))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        write_endpoint(self.state_dir, self.host, self.port, self.name)
        accept = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        accept.start()
        tick = threading.Thread(
            target=self._tick_loop, name="service-tick", daemon=True
        )
        tick.start()
        self._threads += [accept, tick]
        for i in range(self.local_workers):
            self._spawn_local(i, defuse_chaos=False)
        with self._lock:  # the tick thread also writes telemetry
            self.telemetry.write()
        return self

    def stop(self) -> None:
        """Stop serving: agents get ``shutdown`` on their next pull,
        local processes are reaped, telemetry gets a final flush."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        deadline = time.time() + 5.0
        for proc in self._local_procs:
            proc.join(timeout=max(0.1, deadline - time.time()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        with self._lock:
            self.telemetry.write()
        try:
            (self.state_dir / ENDPOINT_FILE).unlink(missing_ok=True)
        except OSError:
            pass
        self.cache.close()

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def stopping(self) -> bool:
        return self._stopping

    @property
    def endpoint(self) -> tuple:
        if self.port is None:
            raise ServiceError("coordinator not started")
        return (self.host, self.port)

    # ------------------------------------------------------------- local pool
    def _spawn_local(self, slot: int, defuse_chaos: bool) -> None:
        from repro.service.worker import _local_agent_main

        proc = self._ctx.Process(
            target=_local_agent_main,
            args=(self.host, self.port, f"local{slot}", defuse_chaos,
                  self.trace_dir),
            daemon=True,
            name=f"service-local{slot}",
        )
        proc.start()
        proc.slot = slot
        self._local_procs.append(proc)
        self.metrics.counter("service.agent_spawns").inc()

    def _reap_local(self) -> None:
        """Respawn local agent slots whose process died.

        A death here is almost always the ``REPRO_CHAOS_KILL`` hook (or
        an OOM); the lease cleanup already happened via the socket EOF.
        The respawn *defuses* the chaos hook in the child — the env
        trigger fires on every attempt, so a respawned agent that still
        honored it would die forever and livelock the fleet.
        """
        dead = [p for p in self._local_procs if p.exitcode is not None]
        for proc in dead:
            self._local_procs.remove(proc)
            self._local_deaths += 1
            self.metrics.counter("service.local_agent_deaths").inc()
            self._spawn_local(proc.slot, defuse_chaos=True)

    # ------------------------------------------------------------ accept/tick
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            thread = threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            )
            thread.start()

    def _tick_loop(self) -> None:
        """Housekeeping: lease-deadline expiry, local-agent respawn,
        telemetry rewrites.  Runs until stop."""
        while not self._stopping:
            with self._lock:
                self._expire_leases(time.time())
                if not self._stopping:
                    self._reap_local()
                self._refresh_gauges()
                self.telemetry.maybe_write()
            time.sleep(self.poll)

    def _expire_leases(self, now: float) -> None:
        """Requeue every lease past its deadline and forget it: the
        holder's late report, or its death, is then stale and leaves
        the trial's next lease alone."""
        for sub in self._submissions.values():
            if sub.state != "running":
                continue
            for h in sub.queue.expire(now):
                holder = sub.queue.states[h].worker
                self._agent_leases.get(holder, {}).pop((sub.sub_id, h), None)
                self._inflight.pop(h, None)
                self._dispatch_t.pop((sub.sub_id, h), None)
                self.metrics.counter("service.requeues").inc()

    def _refresh_gauges(self) -> None:
        """Per-client queue depth + fleet shape, mirrored for export."""
        m = self.metrics
        depth: dict[str, int] = {}
        for sub in self._submissions.values():
            depth.setdefault(sub.client, 0)  # settled clients drop to 0
            if sub.state == "running":
                depth[sub.client] += len(sub.queue.pending)
        for client, n in depth.items():
            m.gauge(f"service.client.{client}.queue_depth").set(n)
        m.gauge("service.submissions").set(len(self._submissions))
        m.gauge("service.inflight").set(len(self._inflight))
        m.gauge("service.local_agents").set(len(self._local_procs))

    # ----------------------------------------------------------- connections
    def _serve_conn(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        worker_id: Optional[str] = None
        try:
            while True:
                try:
                    msg = recv_msg(rfile)
                except ServiceError:
                    break  # garbage on the wire: drop the connection
                except OSError:
                    break  # peer reset (e.g. a killed agent): treat as EOF
                if msg is None:
                    break
                if msg["type"] == "attach":
                    worker_id = self._attach(msg)
                    reply = {"type": "attached", "worker": worker_id}
                else:
                    reply = self._handle(msg)
                try:
                    send_msg(wfile, reply)
                except OSError:
                    break
                if reply.get("type") == "bye":
                    break
        finally:
            try:
                conn.close()
            except OSError:
                pass
            if worker_id is not None:
                self._agent_gone(worker_id)

    def _attach(self, msg: dict) -> str:
        name = str(msg.get("agent", "agent"))
        with self._lock:
            self._incarnations[name] = self._incarnations.get(name, 0) + 1
            worker_id = f"{name}.{self._incarnations[name]}"
            self._agent_leases[worker_id] = {}
            self.metrics.counter("service.agent_attaches").inc()
        return worker_id

    def _agent_gone(self, worker_id: str) -> None:
        """An agent's connection closed: requeue everything it held.

        Covers SIGKILLed local agents (chaos), crashed external
        workers, and network drops alike — the socket EOF *is* the
        death detector, with the lease deadline as the backstop for an
        agent that wedges while keeping the socket open.
        """
        with self._lock:
            leases = self._agent_leases.pop(worker_id, {})
            if leases:
                self.metrics.counter("service.agent_deaths").inc()
            for (sub_id, h), lease in leases.items():
                self._inflight.pop(h, None)
                self._dispatch_t.pop((sub_id, h), None)
                self._submissions[sub_id].queue.requeue(lease)
                self.metrics.counter("service.requeues").inc()

    # -------------------------------------------------------------- requests
    def _handle(self, msg: dict) -> dict:
        kind = msg["type"]
        try:
            if kind == "ping":
                return {
                    "type": "pong",
                    "version": PROTOCOL_VERSION,
                    "name": self.name,
                    "uptime": time.time() - self._t0,
                    "store": self.cache.url if self.cache.shared else "mem:",
                }
            if kind == "submit":
                return self._submit(msg)
            if kind == "status":
                return self._status(msg)
            if kind == "fetch":
                return self._fetch(msg)
            if kind == "cancel":
                return self._cancel(msg)
            if kind == "next":
                return self._next_trial(msg)
            if kind == "report":
                return self._report(msg)
            if kind == "shutdown":
                threading.Thread(target=self.stop, daemon=True).start()
                return {"type": "bye"}
            return {"type": "error", "error": f"unknown request type {kind!r}"}
        except ServiceError as exc:
            return {"type": "error", "error": str(exc)}
        except Exception as exc:  # a bad request must never kill serving
            return {"type": "error", "error": f"{type(exc).__name__}: {exc}"}

    def _submit(self, msg: dict) -> dict:
        priority = msg.get("priority", "bulk")
        if priority not in PRIORITIES:
            raise ServiceError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        spec = CampaignSpec.from_dict(msg.get("spec"))
        client = str(msg.get("client", "anon"))
        trials = spec.trials()
        now = time.time()
        with self._lock:
            if self._stopping:
                raise ServiceError("coordinator is shutting down")
            self._sub_seq += 1
            sub_id = f"sub{self._sub_seq}"
            # Store scan first: every hash already in the shared store
            # is a fleet-wide dedup hit, served without a lease ever
            # existing; only the rest enters the queue.
            records: dict[str, dict] = {}
            pending = []
            for trial in trials:
                if trial.hash in records:
                    continue  # duplicate hash within one spec
                record = self.cache.serve(trial)
                if record is not None:
                    records[trial.hash] = record
                    self.metrics.counter("service.store_hits").inc()
                else:
                    pending.append(trial)
            sub = Submission(
                sub_id=sub_id, client=client, priority=priority, spec=spec,
                trials=trials, created=now,
                records=records, hits=len(records),
                configs={t.hash: t.config for t in trials},
                queue=LeaseQueue(
                    [t.hash for t in pending],
                    retry_budget=self.retry_budget,
                    backoff_base=self.backoff_base,
                ),
            )
            if sub.hits and sub.first_result_t is None:
                sub.first_result_t = now
                self.metrics.histogram(
                    "wall.service.first_result_seconds"
                ).observe(max(0.0, now - sub.created))
            self._submissions[sub_id] = sub
            self.metrics.counter("service.submits").inc()
            self.metrics.counter(f"service.submits.{priority}").inc()
            self._maybe_settle(sub)
            return {
                "type": "submitted",
                "sub": sub_id,
                "trials": len(trials),
                "hits": sub.hits,
                "pending": len(pending),
            }

    def _status(self, msg: dict) -> dict:
        with self._lock:
            sub_id = msg.get("sub")
            if sub_id is not None:
                sub = self._require_sub(sub_id)
                return {"type": "status", "submission": sub.status()}
            return {
                "type": "status",
                "name": self.name,
                "uptime": time.time() - self._t0,
                "submissions": [
                    s.status() for s in self._submissions.values()
                ],
                "inflight": len(self._inflight),
                "agents": sorted(self._agent_leases),
                "store": {
                    "kind": self.cache.kind,
                    "records": len(self.cache),
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                },
            }

    def _fetch(self, msg: dict) -> dict:
        with self._lock:
            sub = self._require_sub(msg.get("sub"))
            if sub.state == "cancelled":
                raise ServiceError(f"{sub.sub_id} was cancelled")
            if not sub.settled:
                return {
                    "type": "error",
                    "error": f"{sub.sub_id} not settled yet",
                    "submission": sub.status(),
                }
            return {"type": "document", "sub": sub.sub_id,
                    "doc": self._document(sub)}

    def _cancel(self, msg: dict) -> dict:
        with self._lock:
            sub = self._require_sub(msg.get("sub"))
            if sub.state == "running":
                sub.state = "cancelled"
                self.metrics.counter("service.cancels").inc()
            return {"type": "cancelled", "sub": sub.sub_id,
                    "state": sub.state}

    def _require_sub(self, sub_id) -> Submission:
        sub = self._submissions.get(sub_id)
        if sub is None:
            raise ServiceError(f"unknown submission {sub_id!r}")
        return sub

    # ------------------------------------------------------------ dispatching
    def _next_trial(self, msg: dict) -> dict:
        worker = str(msg.get("worker", "?"))
        now = time.time()
        with self._lock:
            if self._stopping:
                return {"type": "shutdown"}
            if self._paused or worker not in self._agent_leases:
                return {"type": "idle"}
            # Two-level priority: all interactive submissions are
            # offered before any bulk one — preemption happens at the
            # trial boundary because agents pull one trial at a time.
            for priority in PRIORITIES:
                for sub in self._submissions.values():
                    if sub.state != "running" or sub.priority != priority:
                        continue
                    lease = sub.queue.lease(
                        worker, now, self.lease_ttl,
                        skip=self._inflight.keys(),
                    )
                    if lease is None:
                        continue
                    self._inflight[lease.trial] = sub.sub_id
                    self._agent_leases[worker][(sub.sub_id, lease.trial)] = lease
                    self._dispatch_t[(sub.sub_id, lease.trial)] = now
                    self.dispatch_log.append((worker, sub.sub_id, lease.trial))
                    self.metrics.counter("service.leases").inc()
                    return {
                        "type": "trial",
                        "sub": sub.sub_id,
                        "hash": lease.trial,
                        "config": sub.configs[lease.trial],
                        "attempt": lease.attempt,
                        "token": lease.token,
                    }
            return {"type": "idle"}

    def _report(self, msg: dict) -> dict:
        worker = str(msg.get("worker", "?"))
        record = msg.get("record")
        if not isinstance(record, dict):
            raise ServiceError("report without a record")
        h = msg.get("hash")
        sub_id = msg.get("sub")
        now = time.time()
        with self._lock:
            sub = self._submissions.get(sub_id)
            held = self._agent_leases.get(worker, {})
            lease = held.get((sub_id, h))
            if sub is None or lease is None or lease.token != msg.get("token"):
                # Stale: the lease was reclaimed (deadline, presumed
                # death) and possibly re-granted, so the in-flight
                # entries belong to the live lease.  Content-addressing
                # makes dropping the report harmless.
                self.metrics.counter("service.stale_reports").inc()
                return {"type": "ack", "stale": True}
            del held[(sub_id, h)]
            self._inflight.pop(h, None)
            dispatch_t = self._dispatch_t.pop((sub_id, h), None)
            if dispatch_t is not None:
                self.metrics.histogram("wall.trial.seconds").observe(
                    max(0.0, now - dispatch_t)
                )
            if record.get("status") == "ok":
                self.cache.put(h, {k: v for k, v in record.items()
                                   if k != "cached"})
                sub.queue.complete(lease)
                self._land(sub, h, {**record, "cached": False}, now)
                self._propagate(h, record, now, source=sub_id)
            else:
                outcome = sub.queue.fail(
                    lease, record.get("error") or "failed", now
                )
                self.metrics.counter("service.trial_failures").inc()
                if outcome == "quarantined":
                    self.metrics.counter("service.quarantines").inc()
                    self._land(sub, h, {**record, "cached": False}, now)
            return {"type": "ack"}

    def _land(self, sub: Submission, h: str, record: dict, now: float) -> None:
        """A record reached ``sub``: store it, stamp first-result."""
        sub.records[h] = record
        if sub.first_result_t is None:
            sub.first_result_t = now
            self.metrics.histogram(
                "wall.service.first_result_seconds"
            ).observe(max(0.0, now - sub.created))
        self._maybe_settle(sub)

    def _maybe_settle(self, sub: Submission) -> None:
        if sub.state == "running" and sub.settled:
            sub.state = "done"
            self.metrics.counter("service.settled").inc()

    def _propagate(self, h: str, record: dict, now: float, source: str) -> None:
        """Event-driven dedup: a landed result completes the same hash
        in every *other* submission still waiting on it."""
        for sub in self._submissions.values():
            if sub.sub_id == source or sub.state != "running":
                continue
            state = sub.queue.states.get(h)
            if state is None or state.status != "pending":
                continue
            sub.queue.complete_external(h)
            self.metrics.counter("service.dedup_completions").inc()
            self._land(sub, h, {**{k: v for k, v in record.items()
                                   if k != "cached"}, "cached": True}, now)

    # -------------------------------------------------------------- document
    def _document(self, sub: Submission) -> dict:
        """The finished campaign JSON — via :class:`CampaignRun`, so it
        is byte-identical to serial ``campaign run`` of the same spec."""
        records = [sub.records[t.hash] for t in sub.trials]
        run = CampaignRun(
            spec=sub.spec,
            trials=sub.trials,
            records=records,
            quarantined=sub.queue.quarantined,
        )
        return run.document()

    # ------------------------------------------------------------ test hooks
    def pause(self) -> None:
        """Freeze dispatch (agents see ``idle``); submissions queue up."""
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        with self._lock:
            self._paused = False

    def wait_settled(self, sub_id: str, timeout: float = 60.0) -> dict:
        """Block until a submission settles (tests + CLI --wait)."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            with self._lock:
                sub = self._require_sub(sub_id)
                if sub.settled or sub.state == "cancelled":
                    return sub.status()
            time.sleep(self.poll)
        with self._lock:
            raise ServiceError(
                f"{sub_id} did not settle within {timeout}s: "
                f"{self._require_sub(sub_id).status()}"
            )
