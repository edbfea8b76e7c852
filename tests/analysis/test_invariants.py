"""Invariant checker tests: fabricated traces per invariant, plus a
seeded protocol bug that the checker must catch on a real run.

There is one checker and so no second opinion: every verdict it can
emit has, below, one forged trace that makes it fire and one near-miss
that does not (ROADMAP item 1d).

Rule (message) — fires / near-miss:

* INV-SEQ "is not alternating-bit" —
  ``test_sequence_bit_outside_0_1_is_flagged`` /
  ``test_clean_alternation_passes``
* INV-SEQ "changed its sequence bit" —
  ``test_retransmission_changing_bit_is_flagged`` /
  ``test_clean_alternation_passes``
* INV-SEQ "reused sequence bit" — ``test_reused_sequence_bit_is_flagged`` /
  ``test_busy_nack_``, ``test_seq_swap_``, ``test_peer_dead_legitimizes_resync``
* INV-DELTAT "transmitted N times" —
  ``test_too_many_retransmissions_is_flagged`` /
  ``test_max_ack_attempts_sends_are_allowed``
* INV-DELTAT "Delta-t bounds the window" —
  ``test_retransmission_window_bound_is_flagged`` /
  ``test_retransmission_just_inside_the_window_is_clean``
* INV-DELTAT of a retired message —
  ``test_verdict_of_a_retired_message_is_kept`` /
  ``test_busy_nack_withdraws_a_retired_messages_verdict``
* INV-DELTAT of a parked message —
  ``test_seq_swap_of_another_pid_keeps_the_verdict`` /
  ``test_seq_swap_drops_the_parked_pids_verdict``
* INV-DELTAT of a crashed sender —
  ``test_client_reset_keeps_connection_verdicts`` /
  ``test_crash_forgets_the_senders_connections``
* INV-HANDLER — ``test_nested_handler_is_flagged``,
  ``test_interrupt_inside_boot_handler_is_flagged`` /
  ``test_alternating_handler_is_clean``,
  ``test_interrupt_after_boot_handler_ends_is_clean``
* INV-COMPLETE "illegal transition" — ``test_illegal_transition_is_flagged`` /
  ``test_full_lifecycle_is_clean``
* INV-COMPLETE "left in state" —
  ``test_unfinished_request_is_a_leak_in_strict_mode``,
  ``test_a_completed_requester_does_not_excuse_an_open_cell``,
  ``test_a_server_reset_retires_the_mark`` / the same trace non-strict,
  ``test_crash_forgives_unfinished_requests``,
  ``test_a_requester_that_gave_up_excuses_the_open_cell``,
  ``test_a_cancelled_request_excuses_the_open_cell``
* INV-LEDGER "unknown cost category", "ledger total", "negative charge" —
  ``test_unknown_ledger_category_``, ``test_inconsistent_ledger_total_``,
  ``test_negative_ledger_charge_is_flagged`` /
  ``test_consistent_ledger_is_clean``
* SODA007 — ``test_busy_retry_earlier_than_hint_is_flagged`` /
  ``test_busy_retry_honoring_hint_is_clean``, ``test_hintless_…``,
  ``test_hint_for_other_…``, ``test_seq_swap_releases_the_hint``,
  ``test_hint_landing_after_the_retry_decision_does_not_bind_it``

There is no second, "degraded" auditor for traces that lost records:
the ring-buffer tracer it served is gone, and a run too long to keep is
judged live.  What its four tests asserted is now made by:

* a healthy truncated run passes, and the conftest watcher degrades
  instead of skipping — a counters-only trace refuses every post-hoc
  judge (test_live_judging::test_post_hoc_judge_refuses_a_partial_trace)
  and is judged live whole (test_soak::test_whole_system_soak);
* handler entry/exit counters that do not balance — the live checker's
  INV-HANDLER, which sees every record (``test_nested_handler_…``,
  ``test_interrupt_inside_boot_handler_…``);
* a wedged connection — ``check_liveness``'s kernel-state audit, on a
  counters-only run
  (test_record_lifetime::test_a_wedged_connection_is_reported_without_a_trace).
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import InvariantChecker, check_network
from repro.core.kernel import DELIVERED_SUCCESSORS, DeliveredState
from repro.workloads import WORKLOADS, run_workload
from repro.sim.tracing import CostLedger, SinkTable, Tracer
from repro.transport.retransmit import RetransmitPolicy


def checker(**kwargs) -> InvariantChecker:
    kwargs.setdefault("policy", RetransmitPolicy())
    return InvariantChecker(**kwargs)


def tx(trace, t, seq, pid, mid=1, dst=2, nbytes=0):
    trace.record(t, "kernel.tx", mid=mid, dst=dst, seq=seq, pid=pid, bytes=nbytes)


def invariants(violations):
    return {v.invariant for v in violations}


def only(violations, invariant, fragment):
    """The single violation expected, by rule id and message fragment."""
    assert len(violations) == 1, [v.format() for v in violations]
    assert violations[0].invariant == invariant
    assert fragment in violations[0].message


# -- INV-SEQ -----------------------------------------------------------


def test_clean_alternation_passes():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 100.0, 0, 1)  # retransmission keeps its bit
    tx(trace, 200.0, 1, 2)
    tx(trace, 300.0, 0, 3)
    assert checker().check(trace) == []


def test_reused_sequence_bit_is_flagged():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 100.0, 0, 2)
    only(checker().check(trace), "INV-SEQ", "reused sequence bit 0")


def test_retransmission_changing_bit_is_flagged():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 100.0, 1, 1)
    only(checker().check(trace), "INV-SEQ", "changed its sequence bit 0 -> 1")


def test_sequence_bit_outside_0_1_is_flagged():
    trace = Tracer()
    tx(trace, 0.0, 2, 1)
    only(checker().check(trace), "INV-SEQ", "2 is not alternating-bit")


def test_busy_nack_legitimizes_resync():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    trace.record(50.0, "kernel.rx", mid=1, src=2, nack="busy")
    tx(trace, 100.0, 0, 2)
    assert checker().check(trace) == []


def test_seq_swap_legitimizes_resync():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    trace.record(
        50.0, "conn.seq_swap", mid=1, peer=2, parked_pid=1, taker_pid=2, seq=0
    )
    tx(trace, 100.0, 0, 2)
    assert checker().check(trace) == []


def test_peer_dead_legitimizes_resync():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    trace.record(50.0, "conn.peer_dead", mid=1, peer=2)
    tx(trace, 100.0, 0, 2)
    assert checker().check(trace) == []


# -- INV-DELTAT --------------------------------------------------------


def test_too_many_retransmissions_is_flagged():
    policy = RetransmitPolicy()
    trace = Tracer()
    for i in range(policy.max_ack_attempts + 1):
        tx(trace, i * 100.0, 0, 1)
    only(
        checker().check(trace),
        "INV-DELTAT",
        f"transmitted {policy.max_ack_attempts + 1} times",
    )


def test_max_ack_attempts_sends_are_allowed():
    policy = RetransmitPolicy()
    trace = Tracer()
    for i in range(policy.max_ack_attempts):
        tx(trace, i * 100.0, 0, 1)
    assert checker().check(trace) == []


def _two_send_window_us(nbytes=0):
    """The widest span INV-DELTAT allows two sends of one message."""
    return RetransmitPolicy().retry_window_bound_us(2, nbytes) * 1.5 + 10_000.0


def test_retransmission_window_bound_is_flagged():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, _two_send_window_us() + 1.0, 0, 1)
    only(checker().check(trace), "INV-DELTAT", "Delta-t bounds the window")


def test_retransmission_just_inside_the_window_is_clean():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, _two_send_window_us(), 0, 1)
    assert checker().check(trace) == []


def test_window_bound_grows_with_the_message_size():
    # A span that is dirty for an empty message is clean for a big one:
    # the bound is the policy's, per byte included.
    trace = Tracer()
    tx(trace, 0.0, 0, 1, nbytes=4000)
    tx(trace, _two_send_window_us() + 1.0, 0, 1, nbytes=4000)
    assert _two_send_window_us(4000) > _two_send_window_us() + 1.0
    assert checker().check(trace) == []


def test_busy_parked_messages_are_exempt():
    trace = Tracer()
    for i in range(20):
        tx(trace, i * 1_000_000.0, 0, 1)
    trace.record(5.0, "kernel.rx", mid=1, src=2, nack="busy")
    assert checker().check(trace) == []


# -- INV-DELTAT: what retirement keeps and what withdraws it -----------
#
# A new message on a connection retires the previous one; only a dirty
# one leaves anything behind (its verdict).  Each pair below is one
# trace with and without the record that must withdraw that verdict.

LATE = 10_000_000.0  # ten simulated seconds: far outside any window


def _dirty_then_retired(trace):
    tx(trace, 0.0, 0, 1)
    tx(trace, LATE, 0, 1)  # pid 1 overran its window...
    tx(trace, LATE + 100.0, 1, 2)  # ...and pid 2 retires it


def test_verdict_of_a_retired_message_is_kept():
    trace = Tracer()
    _dirty_then_retired(trace)
    only(checker().check(trace), "INV-DELTAT", "pkt#1 to 2 retransmitted")


def test_busy_nack_withdraws_a_retired_messages_verdict():
    # The BUSY arrives only after pid 1 was retired: the slow-retry
    # regime covers the connection, so the verdict already computed for
    # the retired message goes too.
    trace = Tracer()
    _dirty_then_retired(trace)
    trace.record(LATE + 200.0, "kernel.rx", mid=1, src=2, nack="busy")
    assert checker().check(trace) == []


def test_busy_nack_on_another_connection_withdraws_nothing():
    trace = Tracer()
    _dirty_then_retired(trace)
    trace.record(LATE + 200.0, "kernel.rx", mid=1, src=3, nack="busy")
    only(checker().check(trace), "INV-DELTAT", "pkt#1 to 2 retransmitted")


def _swap(trace, t, parked_pid):
    trace.record(
        t, "conn.seq_swap", mid=1, peer=2, parked_pid=parked_pid, taker_pid=2, seq=0
    )


def test_seq_swap_drops_the_parked_pids_verdict():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, LATE, 0, 1)  # dirty: would violate INV-DELTAT
    _swap(trace, LATE + 100.0, parked_pid=1)
    tx(trace, LATE + 200.0, 0, 2)  # the taker reuses the bit
    assert checker().check(trace) == []


def test_seq_swap_of_another_pid_keeps_the_verdict():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, LATE, 0, 1)
    _swap(trace, LATE + 100.0, parked_pid=9)
    tx(trace, LATE + 200.0, 0, 2)
    only(checker().check(trace), "INV-DELTAT", "pkt#1 to 2 retransmitted")


def test_crash_forgets_the_senders_connections():
    trace = Tracer()
    _dirty_then_retired(trace)  # one pending verdict, one live message
    tx(trace, LATE + 200.0, 1, 2)
    tx(trace, 2 * LATE, 1, 2)  # the live one is dirty too
    trace.record(2 * LATE + 100.0, "kernel.crash", mid=1)
    assert checker().check(trace) == []


def test_client_reset_keeps_connection_verdicts():
    # Only a node crash loses the kernel's connection table; a client
    # reset (or a crash of the *peer*) leaves the sender accountable.
    trace = Tracer()
    _dirty_then_retired(trace)
    trace.record(LATE + 200.0, "kernel.client_reset", mid=1)
    trace.record(LATE + 300.0, "kernel.crash", mid=2)
    only(checker().check(trace), "INV-DELTAT", "pkt#1 to 2 retransmitted")


# -- outside the contract (DESIGN.md §13) ------------------------------
#
# Retired state is gone: a trace no kernel can emit is judged by what is
# still held.  Pinned so the limits stay the documented ones.


def test_retired_message_transmitting_again_counts_as_a_new_message():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 100.0, 1, 2)  # retires pid 1
    tx(trace, LATE, 0, 1)  # pid 1 again: a fresh window, bit alternates
    assert checker().check(trace) == []
    tx(trace, LATE + 100.0, 0, 2)  # pid 2 again: "new", and its bit repeats
    only(checker().check(trace), "INV-SEQ", "reused sequence bit 0")


def test_write_after_terminal_state_is_a_transition_from_none():
    trace = Tracer()
    delivered(trace, 0.0, "delivered")
    delivered(trace, 10.0, "done")
    delivered(trace, 20.0, "delivered")  # the same <src, tid> delivered twice
    delivered(trace, 30.0, "done")
    assert checker().check(trace) == []
    delivered(trace, 40.0, "cancelled")
    only(checker().check(trace), "INV-COMPLETE", "None -> 'cancelled'")


# -- SODA007 (BUSY retry earlier than hinted) --------------------------


def tx_tid(trace, t, seq, pid, tid, mid=1, dst=2):
    trace.record(t, "kernel.tx", mid=mid, dst=dst, seq=seq, pid=pid, tid=tid)


def busy_rx(trace, t, hint=None, tid=None, mid=1, src=2):
    trace.record(t, "kernel.rx", mid=mid, src=src, nack="busy", hint=hint, tid=tid)


def busy_retry(trace, t, mid=1, peer=2):
    trace.record(t, "conn.busy_retry", mid=mid, peer=peer, attempt=1)


def test_busy_retry_earlier_than_hint_is_flagged():
    trace = Tracer()
    tx_tid(trace, 0.0, 0, 1, tid=7)
    busy_rx(trace, 500.0, hint=50_000.0, tid=7)
    busy_retry(trace, 10_000.0)  # 40 ms before the hint allows
    tx_tid(trace, 10_000.0, 0, 1, tid=7)
    only(checker().check(trace), "SODA007", "sent 40.5ms earlier")


def test_hint_landing_after_the_retry_decision_does_not_bind_it():
    # busy/duplicate seed 93: the retry is decided on a hintless NACK's
    # timer, a duplicate's hinted NACK lands, and kernel-CPU queueing
    # puts the already-decided retry on the wire inside the new hint.
    trace = Tracer()
    tx_tid(trace, 0.0, 0, 1, tid=7)
    busy_rx(trace, 500.0, hint=None, tid=7)
    busy_retry(trace, 4_400.0)
    busy_rx(trace, 4_700.0, hint=5_658.7, tid=7)
    tx_tid(trace, 5_800.0, 0, 1, tid=7)
    assert checker().check(trace) == []


def test_busy_retry_honoring_hint_is_clean():
    trace = Tracer()
    tx_tid(trace, 0.0, 0, 1, tid=7)
    busy_rx(trace, 500.0, hint=50_000.0, tid=7)
    tx_tid(trace, 51_000.0, 0, 1, tid=7)
    assert checker().check(trace) == []


def test_hintless_busy_nack_does_not_bind():
    trace = Tracer()
    tx_tid(trace, 0.0, 0, 1, tid=7)
    busy_rx(trace, 500.0, hint=None, tid=7)
    tx_tid(trace, 600.0, 0, 1, tid=7)  # client's own schedule governs
    assert checker().check(trace) == []


def test_hint_for_other_transaction_does_not_bind():
    trace = Tracer()
    tx_tid(trace, 0.0, 0, 1, tid=7)
    busy_rx(trace, 500.0, hint=50_000.0, tid=9)
    tx_tid(trace, 600.0, 0, 1, tid=7)
    assert checker().check(trace) == []


def test_seq_swap_releases_the_hint():
    # A §5.2.3 priority swap parks the hinted message; its eventual
    # fresh send is a new transmission, not a bound BUSY retry.
    trace = Tracer()
    tx_tid(trace, 0.0, 0, 1, tid=7)
    busy_rx(trace, 500.0, hint=50_000.0, tid=7)
    trace.record(
        600.0, "conn.seq_swap", mid=1, peer=2, parked_pid=1, taker_pid=2, seq=0
    )
    tx_tid(trace, 700.0, 0, 2, tid=8)  # the priority taker
    tx_tid(trace, 1_000.0, 1, 3, tid=7)  # parked message resent early: fine
    assert checker().check(trace) == []


def test_seeded_hint_blind_client_is_detected(monkeypatch):
    """A client that ignores the server's widened BUSY retry hint (the
    overload controller's load-spreading signal) must be caught by
    SODA007 when the trace is replayed."""
    from repro.chaos.runner import run_cell
    from repro.core.connection import Connection

    original = Connection.handle_busy_nack

    def hint_blind(self, nacked_seq, retry_hint_us=None):
        # Seeded bug: retry_hint_us is dropped on the floor.
        return original(self, nacked_seq, retry_hint_us=None)

    monkeypatch.setattr(Connection, "handle_busy_nack", hint_blind)
    result = run_cell("busy", "thundering_herd", seed=1)
    assert any("SODA007" in v for v in result.invariant_violations)


# -- INV-HANDLER -------------------------------------------------------


def test_nested_handler_is_flagged():
    trace = Tracer()
    trace.record(0.0, "kernel.interrupt", mid=3)
    trace.record(10.0, "kernel.interrupt", mid=3)
    only(checker().check(trace), "INV-HANDLER", "(depth 2)")


def test_interrupt_inside_boot_handler_is_flagged():
    # Initialization is a handler (§3.2): it opens with
    # ``kernel.boot_handler`` and closes with an ordinary ENDHANDLER.
    trace = Tracer()
    trace.record(0.0, "kernel.boot_handler", mid=3)
    trace.record(10.0, "kernel.interrupt", mid=3)
    trace.record(20.0, "kernel.endhandler", mid=3)
    only(checker().check(trace), "INV-HANDLER", "(depth 2)")


def test_interrupt_after_boot_handler_ends_is_clean():
    trace = Tracer()
    trace.record(0.0, "kernel.boot_handler", mid=3)
    trace.record(10.0, "kernel.endhandler", mid=3)
    trace.record(20.0, "kernel.interrupt", mid=3)
    trace.record(30.0, "kernel.endhandler", mid=3)
    trace.record(5.0, "kernel.interrupt", mid=4)  # another node: no nesting
    assert checker().check(trace) == []


def test_alternating_handler_is_clean():
    trace = Tracer()
    for base in (0.0, 100.0):
        trace.record(base, "kernel.interrupt", mid=3)
        trace.record(base + 50.0, "kernel.endhandler", mid=3)
    assert checker().check(trace) == []


# -- INV-COMPLETE ------------------------------------------------------


def delivered(trace, t, state, mid=2, src=1, tid=7):
    trace.record(
        t, "kernel.delivered_state", mid=mid, src=src, tid=tid, state=state
    )


def test_illegal_transition_is_flagged():
    # The legal transitions are the kernel's table, a row per state.
    assert set(DELIVERED_SUCCESSORS) == {None, *DeliveredState}
    trace = Tracer()
    delivered(trace, 0.0, "accepted")  # accepted before delivered
    delivered(trace, 1.0, "done")
    only(checker().check(trace), "INV-COMPLETE", "None -> 'accepted'")


def test_unfinished_request_is_a_leak_in_strict_mode():
    trace = Tracer()
    delivered(trace, 0.0, "delivered")
    strict = checker(strict_completion=True).check(trace)
    only(strict, "INV-COMPLETE", "left in state 'delivered'")
    assert checker(strict_completion=False).check(trace) == []


def test_full_lifecycle_is_clean():
    trace = Tracer()
    delivered(trace, 0.0, "delivered")
    delivered(trace, 10.0, "accepted")
    delivered(trace, 20.0, "done")
    assert checker().check(trace) == []


def test_crash_forgives_unfinished_requests():
    trace = Tracer()
    delivered(trace, 0.0, "delivered", mid=5)
    trace.record(10.0, "kernel.crash", mid=5)
    assert checker().check(trace) == []


# An open cell at the end of the run is a leak unless its requester
# stopped waiting for it: it never sends the ACK that would close it.


def complete(trace, t, status, mid=1, tid=7):
    trace.record(t, "kernel.complete", mid=mid, tid=tid, status=status)


def test_a_requester_that_gave_up_excuses_the_open_cell():
    trace = Tracer()
    delivered(trace, 0.0, "delivered")
    complete(trace, 10.0, "crashed")
    complete(trace, 20.0, "crashed", tid=8)  # another request: no cell
    assert checker().check(trace) == []


def test_a_cancelled_request_excuses_the_open_cell():
    trace = Tracer()
    delivered(trace, 0.0, "delivered")
    delivered(trace, 5.0, "accepted")
    trace.record(10.0, "kernel.cancelled", mid=1, tid=7)
    assert checker().check(trace) == []


def test_a_completed_requester_does_not_excuse_an_open_cell():
    trace = Tracer()
    delivered(trace, 0.0, "delivered")
    complete(trace, 10.0, "completed")
    complete(trace, 20.0, "crashed", mid=3)  # another requester's tid 7
    only(checker().check(trace), "INV-COMPLETE", "left in state 'delivered'")


@pytest.mark.parametrize("reset", ["kernel.crash", "kernel.client_reset"])
def test_a_server_reset_retires_the_mark(reset):
    trace = Tracer()
    delivered(trace, 0.0, "delivered")
    complete(trace, 10.0, "crashed")
    trace.record(20.0, reset, mid=2)
    judge = checker()
    table = SinkTable(judge)
    table.replay(trace.records)
    assert judge._delivered == {} and judge._abandoned == set()
    # The same <src, tid> delivered again is judged afresh.
    later = Tracer()
    delivered(later, 30.0, "delivered")
    table.replay(later.records)
    only(
        judge.finish(end_time=table.end_time),
        "INV-COMPLETE",
        "left in state 'delivered'",
    )


# -- INV-LEDGER --------------------------------------------------------


def test_unknown_ledger_category_is_flagged():
    ledger = CostLedger()
    ledger.charge("protocol", 10.0)
    ledger.charge("bogus", 1.0)
    violations = checker().check(Tracer(), ledger=ledger)
    only(violations, "INV-LEDGER", "unknown cost category 'bogus'")


def test_inconsistent_ledger_total_is_flagged():
    class BrokenLedger(CostLedger):
        def total(self):
            return super().total() + 42.0

    ledger = BrokenLedger()
    ledger.charge("protocol", 10.0)
    violations = checker().check(Tracer(), ledger=ledger)
    only(violations, "INV-LEDGER", "ledger total 52.0 != sum")


def test_negative_ledger_charge_is_flagged():
    ledger = CostLedger()
    ledger.charge("protocol", 10.0)
    ledger._charges["transmission"] -= 2.5  # charge() itself refuses
    violations = checker().check(Tracer(), ledger=ledger)
    only(violations, "INV-LEDGER", "negative charge -2.5 in 'transmission'")


def test_consistent_ledger_is_clean():
    ledger = CostLedger()
    ledger.charge("protocol", 10.0)
    ledger.charge("transmission", 2.5)
    assert checker().check(Tracer(), ledger=ledger) == []


# -- end-to-end --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shipped_workloads_hold_all_invariants(name):
    net = run_workload(name)
    violations = check_network(net)
    assert violations == [], "\n".join(v.format() for v in violations)


@pytest.mark.expect_violations("INV-SEQ [mid=1] new message")
def test_seeded_ack_bug_is_detected(monkeypatch):
    """A kernel that stops flipping the alternating bit on ACK must be
    caught by INV-SEQ when the trace is replayed."""
    from repro.core.connection import Connection

    def sticky_ack(self, ack_seq, echo_tx_us=None, implicit=False):
        message = self.outstanding
        if message is None or message.packet.seq != ack_seq:
            return
        self.outstanding = None
        self._cancel_timer("_retransmit_timer")
        self._cancel_timer("_busy_timer")
        # Seeded bug: self.send_seq is never flipped here.
        if message.on_acked is not None:
            message.on_acked()
        self._pump()

    monkeypatch.setattr(Connection, "handle_ack", sticky_ack)
    net = run_workload("echo")
    violations = check_network(net)
    assert any(v.invariant == "INV-SEQ" for v in violations)
