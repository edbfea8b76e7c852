"""Property tests on the retry discipline (repro.recovery.retry).

The at-most-once contract under arbitrary interleavings of OVERLOAD
sheds (proof of non-execution), ambiguous CRASHED completions, and
crash-report/epoch evidence arriving late:

* a retried request is issued **at most once per server incarnation**
  after any ambiguous failure — the next attempt waits for the epoch to
  advance, no matter how the proofs interleave;
* OVERLOAD is proof: it may be retried against the *same* incarnation
  freely, and a run of nothing-but-proofs resolves ``failed``, never
  ``maybe``;
* ``maybe`` appears exactly when ambiguity was seen and never resolved
  by a later definitive completion;
* the attempt budget is respected.

The driver replays :func:`repro.recovery.retry.retry_request` against a
scripted fake API — no network, no simulator — so hypothesis can sweep
thousands of interleavings per second.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import RequestStatus
from repro.recovery.retry import RetryPolicy, retry_request
from repro.sodal.api import Completion

SERVER_MID = 7

#: One scripted attempt outcome: (kind, epoch_bump_delay_us or None).
#: ``kind`` is what the next b_request completes with; the delay says
#: when (relative to the attempt) the server's next incarnation shows
#: up in the detector — None means it never does.
Step = Tuple[str, Optional[float]]


class _FakeTrace:
    def __init__(self):
        self.records: List[Tuple[float, str]] = []

    def record(self, now, category, *values):
        self.records.append((now, category))


class _FakeSim:
    def __init__(self):
        self.trace = _FakeTrace()


class _FakeDetector:
    """Epoch witness: incarnations appear at scripted absolute times."""

    def __init__(self, api):
        self._api = api
        self._bumps: List[float] = []

    def schedule_bump(self, at_us: float) -> None:
        self._bumps.append(at_us)

    def epoch(self, mid: int) -> int:
        return sum(1 for at in self._bumps if self._api.now >= at)


class _ScriptedApi:
    """Just enough API surface for retry_request, fully scripted.

    ``b_request``/``discover_all`` are generator functions with an
    unreachable ``yield`` so ``yield from`` works and their ``return``
    value comes back through StopIteration, exactly like the real API.
    """

    def __init__(self, script: List[Step]):
        self.now = 0.0
        self.my_mid = 1
        self.sim = _FakeSim()
        self.script = list(script)
        self.detector = _FakeDetector(self)
        #: (issue time, epoch at issue) per b_request actually sent.
        self.issued: List[Tuple[float, int]] = []
        self.consumed: List[str] = []

    def compute(self, us: float):
        return ("compute", us)

    def discover_all(self, pattern, max_replies=8):
        return [SERVER_MID]
        yield  # pragma: no cover - makes this a generator

    def b_request(self, signature, arg=0, put=None, get=None):
        kind, bump_delay = (
            self.script.pop(0) if self.script else ("overload", None)
        )
        self.consumed.append(kind)
        self.issued.append((self.now, self.detector.epoch(SERVER_MID)))
        if bump_delay is not None:
            # The crash report (and reboot) land this much later —
            # possibly long after the failed completion is delivered.
            self.detector.schedule_bump(self.now + bump_delay)
        self.now += 1_000.0  # a request takes a moment
        if kind == "completed":
            return Completion(RequestStatus.COMPLETED, arg=0)
        if kind == "rejected":
            return Completion(RequestStatus.REJECTED, arg=-1)
        if kind == "overload":
            return Completion(RequestStatus.OVERLOADED, not_executed=True)
        return Completion(RequestStatus.CRASHED, not_executed=None)
        yield  # pragma: no cover - makes this a generator


def _run(script: List[Step], policy: RetryPolicy):
    """Drive retry_request to its outcome, advancing time per compute."""
    api = _ScriptedApi(script)
    gen = retry_request(
        api, pattern=object(), policy=policy, detector=api.detector
    )
    try:
        step = next(gen)
        while True:
            kind, us = step
            assert kind == "compute"
            api.now += us
            step = gen.send(None)
    except StopIteration as stop:
        return stop.value, api


POLICY = RetryPolicy(
    max_attempts=6,
    deadline_us=60_000_000.0,
    backoff_base_us=10_000.0,
    backoff_max_us=100_000.0,
)

#: An attempt outcome: OVERLOAD proofs, ambiguous crashes whose epoch
#: evidence arrives promptly, late, or never, and definitive endings.
steps = st.lists(
    st.one_of(
        st.just(("overload", None)),
        st.just(("completed", None)),
        st.just(("rejected", None)),
        st.tuples(
            st.just("crashed"),
            st.one_of(
                st.none(),  # incarnation never returns
                st.floats(min_value=0.0, max_value=500_000.0),  # prompt
                st.floats(  # proof arrives late, near the deadline
                    min_value=10_000_000.0, max_value=50_000_000.0
                ),
            ),
        ),
    ),
    min_size=1,
    max_size=8,
)


@given(script=steps)
@settings(max_examples=300, deadline=None)
def test_at_most_one_ambiguous_attempt_per_incarnation(script):
    """After an ambiguous failure, the same incarnation is never
    re-asked — every subsequent attempt sees a strictly newer epoch."""
    _outcome, api = _run(list(script), POLICY)
    last_ambiguous_epoch: Optional[int] = None
    for (at, epoch), kind in zip(api.issued, api.consumed):
        if last_ambiguous_epoch is not None:
            assert epoch > last_ambiguous_epoch, (
                f"attempt at t={at} reused incarnation {epoch} after an "
                f"ambiguous failure at that epoch (script={script})"
            )
            last_ambiguous_epoch = None
        if kind == "crashed":
            last_ambiguous_epoch = epoch


@given(script=steps)
@settings(max_examples=300, deadline=None)
def test_outcome_matches_evidence(script):
    outcome, api = _run(list(script), POLICY)
    assert outcome.attempts == len(api.issued)
    assert outcome.attempts <= POLICY.max_attempts
    if outcome.status == "completed":
        assert api.consumed[-1] == "completed"
    elif outcome.status == "rejected":
        assert api.consumed[-1] == "rejected"
    elif outcome.status == "failed":
        # A provable-failure verdict must never hide ambiguity.
        assert "crashed" not in api.consumed
    else:
        # Ambiguity, once seen, only a definitive completion can clear:
        # a later attempt's OVERLOAD proof covers that attempt alone,
        # never the earlier ambiguous one.
        assert outcome.status == "maybe"
        assert "crashed" in api.consumed
        assert api.consumed[-1] not in ("completed", "rejected")


@given(proofs=st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_pure_overload_runs_resolve_failed_not_maybe(proofs):
    """OVERLOAD is proof of non-execution: retried freely against the
    same incarnation, and exhausting the budget on proofs is 'failed'."""
    outcome, api = _run([("overload", None)] * proofs, POLICY)
    assert outcome.status == "failed"
    # The script pads with OVERLOAD once exhausted, so the retry loop
    # always spends its whole budget on proofs.
    assert outcome.attempts == POLICY.max_attempts
    # All attempts hit the same incarnation: no epoch ever advanced.
    assert {epoch for _, epoch in api.issued} == {0}


@given(bump_delay=st.floats(min_value=0.0, max_value=1_000_000.0))
@settings(max_examples=50, deadline=None)
def test_ambiguous_then_epoch_bump_retries_new_incarnation(bump_delay):
    """Crash with a (possibly late) reboot: the retry lands on the new
    incarnation and completes — applied at most once per incarnation."""
    outcome, api = _run([("crashed", bump_delay), ("completed", None)], POLICY)
    assert outcome.status == "completed"
    assert outcome.attempts == 2
    (_t0, e0), (_t1, e1) = api.issued
    assert e0 == 0 and e1 == 1


def test_ambiguous_without_evidence_is_maybe():
    outcome, api = _run([("crashed", None)], POLICY)
    assert outcome.status == "maybe"
    assert outcome.attempts == 1
    assert any(c == "recovery.maybe" for _, c in api.sim.trace.records)
