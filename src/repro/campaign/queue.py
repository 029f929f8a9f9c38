"""Durable, crash-consistent lease queue for campaign trials.

Each coordinator submission's single source of truth is an append-only
JSONL *journal*: one event per line, each line written with a single
``O_APPEND`` ``write(2)`` plus ``fsync``, so a SIGKILL between two
events loses at most the event that had not been written yet.  Queue
state is never stored — it is *replayed* from the journal by
rebuilding the per-trial state machine.

Per-trial state machine (replayed by :func:`apply_event`)::

            lease                 complete
    pending ------> leased ----------------> done        (terminal)
       ^              |  fail (budget left)
       |<-------------+  requeue (agent death / deadline)
       |              |
       |              |  fail (budget exhausted)
       |              +-----------------> quarantined    (terminal)

Terminal states win: once a trial is ``done`` or ``quarantined`` no
later event moves it, so duplicated or stale events — a dedup
completion landing twice, a requeue racing a completion — replay
idempotently.  Unparseable lines (the torn tail of a killed append)
are counted and skipped, and the tail is newline-healed before the
next append so one torn fragment can never swallow a later event.

Failures consume the per-trial retry budget with exponential backoff
(``not_before`` is recorded in the event, so replay restores the exact
schedule); agent deaths and expired leases requeue for free — a trial
that *fails deterministically* quarantines after exactly
``retry_budget`` attempts, while one that merely kept being killed
always drains.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.errors import CampaignError, LeaseExpired

__all__ = [
    "EVENT_KINDS",
    "Lease",
    "TrialState",
    "LeaseQueue",
    "append_event",
    "apply_event",
    "replay_lines",
]

#: Event kinds the replay understands; unknown kinds are ignored so
#: the format can grow without breaking old journals.
EVENT_KINDS = ("begin", "lease", "complete", "fail", "requeue", "quarantine")

#: Trial statuses a replayed state machine may be in.
STATUSES = ("pending", "leased", "done", "quarantined")


def append_event(path: str | Path, event: dict) -> None:
    """Append one journal event as a single atomic ``write``.

    The whole line (JSON + newline) goes through one ``os.write`` on an
    ``O_APPEND`` descriptor, then ``fsync`` — concurrent appenders
    cannot interleave, and a crash either persists the full line or
    none of it (a torn "half a line" from a dying writer is the case
    the replay must also survive).
    """
    line = json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode())
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class Lease:
    """A granted claim on one trial: hash + attempt + unique token.

    The token identifies *this* grant; after a requeue the queue mints
    a new token, so reports from the presumed-dead worker fail with
    :class:`repro.errors.LeaseExpired` instead of corrupting state.
    """

    trial: str
    worker: str
    attempt: int
    token: int
    deadline: float


@dataclass
class TrialState:
    """Replayed per-trial state (see the module state machine)."""

    status: str = "pending"
    #: Leases ever granted (attempt counter, 1-based in events).
    attempts: int = 0
    #: Reported deterministic failures (consume the retry budget).
    fails: int = 0
    #: Earliest wall-clock time the next lease may be granted.
    not_before: float = 0.0
    #: Token of the currently live lease (status == "leased").
    token: Optional[int] = None
    #: Wall-clock deadline of the live lease (from the lease event).
    deadline: float = 0.0
    #: Worker holding the live lease.
    worker: Optional[str] = None
    #: Last recorded failure text (becomes the quarantine record).
    error: Optional[str] = None


def apply_event(states: dict[str, TrialState], event: dict) -> None:
    """Fold one event into the replayed states (idempotent, total).

    Events for unknown trials create their state lazily, events in
    terminal states are ignored, unknown kinds are ignored — *any*
    event sequence replays without raising, which the hypothesis
    property test pins down.
    """
    kind = event.get("ev")
    h = event.get("hash")
    if kind in (None, "begin") or not isinstance(h, str):
        return
    state = states.setdefault(h, TrialState())
    if state.status in ("done", "quarantined"):
        return  # terminal states win
    if kind == "lease":
        state.status = "leased"
        state.attempts += 1
        state.token = event.get("token")
        state.worker = event.get("worker")
        state.deadline = float(event.get("deadline", 0.0))
    elif kind == "complete":
        state.status = "done"
        state.token = None
    elif kind == "fail":
        state.status = "pending"
        state.fails += 1
        state.token = None
        state.not_before = float(event.get("not_before", 0.0))
        state.error = event.get("error")
    elif kind == "requeue":
        state.status = "pending"
        state.token = None
    elif kind == "quarantine":
        state.status = "quarantined"
        state.token = None
        state.error = event.get("error", state.error)


def replay_lines(lines) -> tuple[dict[str, TrialState], dict]:
    """Replay journal lines into states + counters.

    Unparseable lines (torn appends, garbage) are skipped and
    counted; the replayed state is exactly what the event sequence
    minus the lost lines implies — which the state machine makes safe,
    because every lost non-terminal event only causes an idempotent
    re-lease/re-run.
    """
    states: dict[str, TrialState] = {}
    counters = {"events": 0, "torn_lines": 0}
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except json.JSONDecodeError:
            counters["torn_lines"] += 1
            continue
        if not isinstance(event, dict) or "ev" not in event:
            counters["torn_lines"] += 1
            continue
        counters["events"] += 1
        apply_event(states, event)
    return states, counters


class LeaseQueue:
    """The durable work queue: trial order + journal + state machine.

    ``hashes`` fixes the (deterministic) dispatch order; an existing
    journal at ``path`` is replayed on open, which *is* the recovery
    scan — there is no other load path.
    """

    def __init__(
        self,
        path: str | Path,
        hashes: list[str],
        *,
        retry_budget: int = 3,
        backoff_base: float = 0.05,
        name: str = "campaign",
        metrics=None,
    ) -> None:
        if retry_budget < 1:
            raise CampaignError(f"retry_budget must be >= 1, got {retry_budget}")
        if backoff_base < 0:
            raise CampaignError(f"backoff_base must be >= 0, got {backoff_base}")
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        #: set, every journal append's write+fsync wall latency lands in
        #: the ``wall.journal.fsync_seconds`` histogram (the fleet's
        #: durability tax, surfaced by the telemetry files).
        self.metrics = metrics
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.order: list[str] = []
        seen = set()
        for h in hashes:
            if h not in seen:
                seen.add(h)
                self.order.append(h)
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.counters = {"events": 0, "torn_lines": 0}
        self.states: dict[str, TrialState] = {}
        if self.path.exists():
            with open(self.path) as fh:
                replayed, self.counters = replay_lines(fh)
            # Keep only this campaign's trials; foreign hashes (an
            # earlier spec sharing the state dir) replay inert.
            self.states = {h: replayed[h] for h in seen & replayed.keys()}
            self.heal_tail()
        for h in self.order:
            self.states.setdefault(h, TrialState())
        self._next_token = 1 + max(
            (s.token or 0 for s in self.states.values()), default=0
        )
        self._append({
            "ev": "begin", "name": name, "trials": len(self.order),
            "retry_budget": retry_budget,
        })

    # ------------------------------------------------------------ journal
    def _append(self, event: dict) -> None:
        if self.metrics is None:
            append_event(self.path, event)
        else:
            t0 = time.perf_counter()
            append_event(self.path, event)
            self.metrics.histogram("wall.journal.fsync_seconds").observe(
                time.perf_counter() - t0
            )
        self.counters["events"] += 1

    def heal_tail(self) -> None:
        """Terminate a torn (newline-less) tail so later appends parse.

        A killed append can leave half a line at EOF; appending a bare
        newline quarantines the fragment as its own (skipped) garbage
        line instead of letting it swallow the next real event.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
        except FileNotFoundError:
            return
        if last != b"\n":
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, b"\n")
                os.fsync(fd)
            finally:
                os.close(fd)

    # ------------------------------------------------------------- leasing
    def lease(
        self, worker: str, now: float, ttl: float, skip=None
    ) -> Optional[Lease]:
        """Grant the first ready pending trial, or None if none is.

        Trials are scanned in spec-expansion order; a trial inside its
        backoff window (``not_before``) is skipped, not blocked on.
        ``skip`` is an optional hash set to pass over — the coordinator
        uses it to keep a trial already in flight for *another*
        submission from running twice (its result is propagated on
        completion instead).
        """
        for h in self.order:
            state = self.states[h]
            if state.status != "pending" or now < state.not_before:
                continue
            if skip is not None and h in skip:
                continue
            state.status = "leased"
            state.attempts += 1
            state.token = self._next_token
            state.worker = worker
            state.deadline = now + ttl
            self._next_token += 1
            lease = Lease(
                trial=h, worker=worker, attempt=state.attempts,
                token=state.token, deadline=now + ttl,
            )
            self._append({
                "ev": "lease", "hash": h, "worker": worker,
                "attempt": state.attempts, "token": state.token,
                "deadline": lease.deadline,
            })
            return lease
        return None

    def _live_state(self, lease: Lease) -> TrialState:
        state = self.states.get(lease.trial)
        if state is None or state.status != "leased" or state.token != lease.token:
            raise LeaseExpired(lease.trial, lease.worker, lease.attempt)
        return state

    def complete(self, lease: Lease) -> None:
        """Journal + mark a completion."""
        state = self._live_state(lease)
        self._append({
            "ev": "complete", "hash": lease.trial, "worker": lease.worker,
            "attempt": lease.attempt, "token": lease.token,
        })
        state.status = "done"
        state.token = None

    def complete_external(self, trial: str, reason: str) -> None:
        """Complete a trial whose result landed without a lease here
        (the coordinator's cross-submission dedup).

        Idempotent: a duplicate ``complete`` replays inert.
        """
        state = self.states[trial]
        self._append({"ev": "complete", "hash": trial, "reason": reason})
        state.status = "done"
        state.token = None

    def fail(self, lease: Lease, error: str, now: float) -> str:
        """Record a deterministic failure; returns "retry"|"quarantined".

        The ``retry_budget``-th failure quarantines; earlier ones
        requeue behind an exponential backoff whose exact ``not_before``
        is journaled so recovery restores the schedule.
        """
        state = self._live_state(lease)
        state.fails += 1
        state.error = error
        state.token = None
        if state.fails >= self.retry_budget:
            state.status = "quarantined"
            self._append({
                "ev": "quarantine", "hash": lease.trial,
                "attempts": state.attempts, "error": error,
            })
            return "quarantined"
        state.status = "pending"
        state.not_before = now + self.backoff_base * 2 ** (state.fails - 1)
        self._append({
            "ev": "fail", "hash": lease.trial, "worker": lease.worker,
            "attempt": lease.attempt, "token": lease.token,
            "error": error, "not_before": state.not_before,
        })
        return "retry"

    def requeue(self, lease: Lease, reason: str) -> None:
        """Return a leased trial to pending (kill/death/deadline).

        Does *not* consume the retry budget: being killed is the
        fleet's fault, not the trial's.
        """
        state = self._live_state(lease)
        state.status = "pending"
        state.token = None
        self._append({
            "ev": "requeue", "hash": lease.trial, "worker": lease.worker,
            "attempt": lease.attempt, "token": lease.token, "reason": reason,
        })

    def expire(self, now: float) -> list[str]:
        """Requeue every lease past its journaled deadline."""
        expired = []
        for h in self.order:
            state = self.states[h]
            if state.status != "leased" or now < state.deadline:
                continue
            lease = Lease(
                trial=h, worker=state.worker or "?",
                attempt=state.attempts, token=state.token or 0,
                deadline=0.0,
            )
            self.requeue(lease, reason="deadline")
            expired.append(h)
        return expired

    # ----------------------------------------------------------- inspection
    def _with_status(self, status: str) -> list[str]:
        return [h for h in self.order if self.states[h].status == status]

    @property
    def pending(self) -> list[str]:
        return self._with_status("pending")

    @property
    def leased(self) -> list[str]:
        return self._with_status("leased")

    @property
    def done(self) -> list[str]:
        return self._with_status("done")

    @property
    def quarantined(self) -> list[str]:
        return self._with_status("quarantined")

    @property
    def all_settled(self) -> bool:
        return all(
            self.states[h].status in ("done", "quarantined")
            for h in self.order
        )

    def describe(self) -> str:
        return (
            f"queue: {len(self.done)} done | {len(self.leased)} leased | "
            f"{len(self.pending)} pending | "
            f"{len(self.quarantined)} quarantined"
        )
