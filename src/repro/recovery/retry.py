"""Client-side retry that preserves at-most-once execution (§3.6.1).

The kernel's crash semantics give a requester three kinds of failure,
and only some of them are safe to retry (the full table lives in
docs/RECOVERY.md):

* **provably unexecuted** (``Completion.not_executed is True``): the
  NACK said UNADVERTISED, the NACK said OVERLOAD (the server kernel
  *shed* the REQUEST before delivery — admission control, see
  docs/TRANSPORT.md — so the handler provably never saw it), the
  REQUEST was still queued behind a dead peer, or a probe answered
  arg=2 ("the previous incarnation died holding it DELIVERED but never
  ACCEPTed").  Re-issuing cannot double execute, and none of these
  take the MAYBE path.
* **ambiguous** (``not_executed is None`` on a CRASHED completion): the
  request may have executed — e.g. the transport ack, not the REQUEST,
  was lost.  Re-issuing is only safe against a *new incarnation* of the
  server: a reboot wiped whatever state the lost handler invocation
  built, so the detector's epoch must advance first.  Without an epoch
  witness the outcome is reported as ``MAYBE``.
* **rejected**: the server said no; retrying is the application's call,
  not ours — reported as ``rejected``.

:func:`retry_request` is a generator helper (``yield from`` it inside a
task) implementing that discipline under a :class:`RetryPolicy` budget,
re-resolving the pattern by DISCOVER before every attempt so a retry
lands on the *current* incarnation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import RequestStatus
from repro.core.patterns import Pattern
from repro.core.signatures import ServerSignature


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget, deadline, and backoff for one logical request."""

    max_attempts: int = 5
    deadline_us: float = 5_000_000.0
    backoff_base_us: float = 100_000.0
    backoff_factor: float = 2.0
    backoff_max_us: float = 1_000_000.0

    def backoff_us(self, attempt: int) -> float:
        delay = self.backoff_base_us * (self.backoff_factor ** attempt)
        return min(delay, self.backoff_max_us)


@dataclass
class RetryOutcome:
    """What happened to one logical request, after all retries."""

    #: "completed", "rejected", "maybe" (may have executed exactly once
    #: — never twice), or "failed" (provably never executed).
    status: str
    completion: Optional[object] = None
    attempts: int = 0

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    @property
    def maybe(self) -> bool:
        return self.status == "maybe"


def retry_request(
    api,
    pattern: Pattern,
    arg: int = 0,
    put=None,
    get=None,
    policy: Optional[RetryPolicy] = None,
    detector=None,
    preferred_mid: Optional[int] = None,
):
    """Issue a REQUEST on ``pattern`` with safe retries; yields a
    :class:`RetryOutcome`.

    ``detector`` (a :class:`repro.recovery.FailureDetector`, optional)
    supplies incarnation epochs: with one attached, an ambiguous failure
    is retried once the target's epoch advances past the one the failed
    attempt spoke to.  Without one, ambiguous failures immediately
    resolve to ``MAYBE``.
    """
    policy = policy or RetryPolicy()
    start_us = api.now
    deadline_us = start_us + policy.deadline_us
    attempts = 0
    saw_ambiguous = False

    def expired() -> bool:
        return api.now >= deadline_us

    while attempts < policy.max_attempts and not expired():
        # Re-resolve the pattern so the attempt lands on the current
        # incarnation (a rebooted server answers DISCOVER again).
        mid = yield from _resolve(
            api, pattern, deadline_us, policy, preferred_mid
        )
        if mid is None:
            break
        epoch_before = detector.epoch(mid) if detector is not None else None
        attempts += 1
        completion = yield from api.b_request(
            ServerSignature(mid, pattern), arg, put=put, get=get
        )
        if completion.status is RequestStatus.COMPLETED:
            return RetryOutcome("completed", completion, attempts)
        if completion.status is RequestStatus.REJECTED:
            return RetryOutcome("rejected", completion, attempts)
        if completion.not_executed is True:
            api.sim.trace.record(
                api.now, "recovery.retry",
                api.my_mid, mid, attempts, completion.status.value,
            )
            yield api.compute(policy.backoff_us(attempts - 1))
            continue
        # Ambiguous: the attempt may have executed.  Only a new
        # incarnation makes a re-issue safe.
        saw_ambiguous = True
        if detector is None:
            break
        bumped = yield from _await_epoch_bump(
            api, detector, mid, epoch_before, deadline_us, policy
        )
        if not bumped:
            break
        api.sim.trace.record(
            api.now, "recovery.retry",
            api.my_mid, mid, attempts, "epoch_advanced",
        )

    if saw_ambiguous:
        api.sim.trace.record(api.now, "recovery.maybe", api.my_mid, attempts)
        return RetryOutcome("maybe", None, attempts)
    return RetryOutcome("failed", None, attempts)


def _resolve(api, pattern, deadline_us, policy, preferred_mid):
    """DISCOVER until some server advertises ``pattern`` (or deadline)."""
    round_ = 0
    while api.now < deadline_us:
        mids = yield from api.discover_all(pattern, max_replies=8)
        if preferred_mid is not None and preferred_mid in mids:
            return preferred_mid
        if mids:
            return mids[0]
        yield api.compute(policy.backoff_us(round_))
        round_ += 1
    return None


def _await_epoch_bump(api, detector, mid, epoch_before, deadline_us, policy):
    """Wait (bounded) for ``mid`` to boot a fresh incarnation."""
    round_ = 0
    while api.now < deadline_us:
        if detector.epoch(mid) > epoch_before:
            return True
        yield api.compute(policy.backoff_us(round_))
        round_ += 1
    return False
