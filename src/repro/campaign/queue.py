"""In-memory lease queue for one coordinator submission.

Per-trial state machine::

            lease                 complete
    pending ------> leased ----------------> done        (terminal)
       ^              |  fail (budget left)
       |<-------------+  requeue (agent death / deadline)
       |              |
       |              |  fail (budget exhausted)
       |              +-----------------> quarantined    (terminal)

Terminal states win: once a trial is ``done`` or ``quarantined`` nothing
moves it, so a duplicated completion (a dedup landing twice) is inert.
Failures consume the per-trial retry budget with exponential backoff
(``not_before``); agent deaths and expired leases requeue for free — a
trial that *fails deterministically* quarantines after exactly
``retry_budget`` attempts, while one that merely kept being killed
always drains.

The queue keeps no file.  Crash recovery lives in the result store: a
coordinator restarted and handed the same spec serves every stored
trial as a hit and re-runs only what the store lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CampaignError, LeaseExpired

__all__ = ["Lease", "TrialState", "LeaseQueue"]

#: Trial statuses of the state machine.
STATUSES = ("pending", "leased", "done", "quarantined")


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
    """Per-trial state (see the module state machine)."""

    status: str = "pending"
    #: Leases ever granted (attempt counter, 1-based).
    attempts: int = 0
    #: Reported deterministic failures (consume the retry budget).
    fails: int = 0
    #: Earliest wall-clock time the next lease may be granted.
    not_before: float = 0.0
    #: Token of the currently live lease (status == "leased").
    token: Optional[int] = None
    #: Wall-clock deadline of the live lease.
    deadline: float = 0.0
    #: Worker holding (or last holding) the lease.
    worker: Optional[str] = None
    #: Last recorded failure text (becomes the quarantine record).
    error: Optional[str] = None


class LeaseQueue:
    """The work queue: trial order + per-trial state machine.

    ``hashes`` fixes the (deterministic) dispatch order.
    """

    def __init__(
        self,
        hashes: list[str],
        *,
        retry_budget: int = 3,
        backoff_base: float = 0.05,
    ) -> None:
        if retry_budget < 1:
            raise CampaignError(f"retry_budget must be >= 1, got {retry_budget}")
        if backoff_base < 0:
            raise CampaignError(f"backoff_base must be >= 0, got {backoff_base}")
        self.order: list[str] = list(dict.fromkeys(hashes))
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.states = {h: TrialState() for h in self.order}
        self._next_token = 1

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
            return Lease(
                trial=h, worker=worker, attempt=state.attempts,
                token=state.token, deadline=state.deadline,
            )
        return None

    def _live_state(self, lease: Lease) -> TrialState:
        state = self.states.get(lease.trial)
        if state is None or state.status != "leased" or state.token != lease.token:
            raise LeaseExpired(lease.trial, lease.worker, lease.attempt)
        return state

    def complete(self, lease: Lease) -> None:
        """Mark a leased trial done."""
        state = self._live_state(lease)
        state.status = "done"
        state.token = None

    def complete_external(self, trial: str) -> None:
        """Complete a trial whose result landed without a lease here
        (the coordinator's cross-submission dedup).

        Idempotent: a trial already done or quarantined stays so.
        """
        state = self.states[trial]
        if state.status not in ("done", "quarantined"):
            state.status = "done"
            state.token = None

    def fail(self, lease: Lease, error: str, now: float) -> str:
        """Record a deterministic failure; returns "retry"|"quarantined".

        The ``retry_budget``-th failure quarantines; earlier ones
        requeue behind an exponential backoff (``not_before``).
        """
        state = self._live_state(lease)
        state.fails += 1
        state.error = error
        state.token = None
        if state.fails >= self.retry_budget:
            state.status = "quarantined"
            return "quarantined"
        state.status = "pending"
        state.not_before = now + self.backoff_base * 2 ** (state.fails - 1)
        return "retry"

    def requeue(self, lease: Lease) -> None:
        """Return a leased trial to pending (kill/death/deadline).

        Does *not* consume the retry budget: being killed is the
        fleet's fault, not the trial's.
        """
        state = self._live_state(lease)
        state.status = "pending"
        state.token = None

    def expire(self, now: float) -> list[str]:
        """Requeue every lease past its deadline; returns their hashes.

        The expired trial's :attr:`TrialState.worker` still names the
        holder the lease was taken from.
        """
        expired = []
        for h in self.order:
            state = self.states[h]
            if state.status == "leased" and now >= state.deadline:
                state.status = "pending"
                state.token = None
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
