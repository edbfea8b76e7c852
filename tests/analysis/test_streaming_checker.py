"""The invariant checker as a stream: a live tracer sink with
O(open-state) memory, equal to a post-hoc replay of the retained trace.

There used to be two state machines — a batch replay in
``analysis/invariants.py`` and ``IncrementalChecker`` in
``analysis/causal/streaming.py`` — and this file proved they agreed.
The batch replay is gone; ``InvariantChecker`` *is* the streaming one.
What the deleted cross-checks asserted is now made by:

* ``test_post_hoc_stream_matches_batch[<workload>]`` (nine ids: strict
  ``check_stream`` over every shipped workload's retained trace is ``[]``
  and equals ``check_network``) — ``check_network`` is that very
  ``check_stream`` call, so the surviving half is
  ``test_invariants::test_shipped_workloads_hold_all_invariants[<workload>]``;
* ``tests/test_static_analysis.py::
  test_streaming_checker_agrees_with_batch_on_a_real_run`` (the same on
  ``echo``) — ``test_shipped_workloads_hold_all_invariants[echo]``, and
  ``test_live_sink_matches_post_hoc_replay`` below for the one
  comparison that still has two sides;
* ``tests/analysis/test_cli.py::test_check_trace_streaming_agrees``
  (``check-trace --streaming``, ``streaming_agrees`` in the JSON) — the
  flag and the key are gone; ``test_check_trace_clean_workload`` and
  ``test_check_trace_json_names_records_and_violations`` cover the one
  mode left, and ``tests/test_docs.py`` fails any doc line that still
  passes the flag;
* ``tests/test_chaos.py::test_full_matrix_streaming_verdicts_match_batch``
  — merged into ``test_full_matrix_is_clean`` (one ``causal=True``
  sweep, see its docstring).

The forged traces below were the ``*_matches`` / ``*_in_both`` inputs
of that proof.  They stay as inputs to the comparison that remains —
the checker fed record by record through a
:class:`~repro.sim.tracing.SinkTable` on the tracer that emits them,
against ``InvariantChecker.check`` over the retained trace — and each
also lives in ``test_invariants.py`` beside its near-miss, which is
where a rule's own proof of life is kept.

The checker has no dispatcher of its own any more (no ``feed``,
``install`` or ``records_checked``): a ``SinkTable`` feeds it, live or
in replay, and counts ``records_fed``.  One id went with that:

* ``test_feed_after_finish_is_an_error`` — behaviour removed: the
  checker has no ``feed``, so there is nothing left to refuse.
"""

from __future__ import annotations

from repro.analysis.causal import check_stream
from repro.analysis.invariants import InvariantChecker
from repro.workloads import build_workload
from repro.sim.tracing import CostLedger, SinkTable, Tracer
from repro.transport.retransmit import RetransmitPolicy


def formatted(violations):
    return [v.format() for v in violations]


def recount(checker):
    """``open_state()`` the slow way, from the tables themselves."""
    return (
        sum(1 for conn in checker._conns.values() if conn.live is not None)
        + len(checker._deltat_pending)
        + len(checker._delivered)
    )


def assert_identical(trace, ledger=None, **kwargs):
    """Replay ``trace`` through a live sink and post hoc; same verdicts."""
    kwargs.setdefault("policy", RetransmitPolicy())
    live = InvariantChecker(**kwargs)
    table = SinkTable(live)
    emitter = Tracer()
    emitter.add_sink(table.feed)
    for rec in trace.records:
        emitter.record(rec.time, rec.category, **rec.fields)
        assert live.open_state() == recount(live)
    post_hoc = formatted(InvariantChecker(**kwargs).check(trace, ledger=ledger))
    verdicts = live.finish(ledger=ledger, end_time=table.end_time)
    assert formatted(verdicts) == post_hoc
    return post_hoc


# -- live sink == post-hoc replay on a real run ------------------------


def test_live_sink_matches_post_hoc_replay():
    built = build_workload("stream")
    live = InvariantChecker(network=built.net)
    table = SinkTable(live).install(built.net)
    net = built.run()
    live_verdicts = formatted(
        live.finish(ledger=net.ledger, end_time=table.end_time)
    )
    replay = formatted(
        check_stream(
            list(net.sim.trace.records), network=net, ledger=net.ledger
        )
    )
    assert live_verdicts == replay
    assert table.records_fed == len(net.sim.trace.records)


# -- live sink == post-hoc replay on fabricated violations -------------


def tx(trace, t, seq, pid, mid=1, dst=2, **fields):
    trace.record(
        t, "kernel.tx", mid=mid, dst=dst, seq=seq, pid=pid, **fields
    )


def test_inv_seq_reused_bit_matches():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 100.0, 0, 2)
    verdicts = assert_identical(trace)
    assert any("INV-SEQ" in v for v in verdicts)


def test_inv_deltat_window_matches():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 10_000_000.0, 0, 1)
    verdicts = assert_identical(trace)
    assert any("INV-DELTAT" in v for v in verdicts)


def test_inv_deltat_attempt_count_matches():
    policy = RetransmitPolicy()
    trace = Tracer()
    for i in range(policy.max_ack_attempts + 2):
        tx(trace, i * 100.0, 0, 1)
    verdicts = assert_identical(trace)
    assert any("INV-DELTAT" in v for v in verdicts)


def test_busy_nack_clears_pending_verdicts_in_both():
    # The message overruns its window, is retired by a fresh pid, and
    # only THEN does the BUSY arrive: the BUSY regime forgives the whole
    # connection, so the already-computed verdict is withdrawn too.
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 10_000_000.0, 0, 1)
    tx(trace, 10_000_100.0, 1, 2)  # retires pid 1 with a dirty verdict
    trace.record(10_000_200.0, "kernel.rx", mid=1, src=2, nack="busy")
    assert assert_identical(trace) == []


def test_seq_swap_drops_parked_pid_in_both():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 10_000_000.0, 0, 1)  # dirty: would violate INV-DELTAT
    trace.record(
        10_000_100.0,
        "conn.seq_swap",
        mid=1,
        peer=2,
        parked_pid=1,
        taker_pid=2,
        seq=0,
    )
    tx(trace, 10_000_200.0, 0, 2)
    assert assert_identical(trace) == []


def test_crash_forgets_connections_in_both():
    trace = Tracer()
    tx(trace, 0.0, 0, 1)
    tx(trace, 10_000_000.0, 0, 1)
    trace.record(10_000_100.0, "kernel.crash", mid=1)
    assert assert_identical(trace) == []


def test_handler_nesting_matches():
    trace = Tracer()
    trace.record(0.0, "kernel.interrupt", mid=3)
    trace.record(10.0, "kernel.interrupt", mid=3)
    verdicts = assert_identical(trace)
    assert any("INV-HANDLER" in v for v in verdicts)


def test_illegal_transition_matches():
    trace = Tracer()
    trace.record(
        0.0, "kernel.delivered_state", mid=2, src=1, tid=7, state="accepted"
    )
    verdicts = assert_identical(trace)
    assert any("INV-COMPLETE" in v for v in verdicts)


def test_strict_completion_leak_matches():
    trace = Tracer()
    trace.record(
        0.0, "kernel.delivered_state", mid=2, src=1, tid=7, state="delivered"
    )
    leak = assert_identical(trace, strict_completion=True)
    assert any("INV-COMPLETE" in v for v in leak)
    assert assert_identical(trace, strict_completion=False) == []


def test_ledger_audit_matches():
    ledger = CostLedger()
    ledger.charge("protocol", 10.0)
    ledger.charge("bogus", 1.0)
    verdicts = assert_identical(Tracer(), ledger=ledger)
    assert any("INV-LEDGER" in v for v in verdicts)


def test_soda007_hint_violation_matches():
    trace = Tracer()
    tx(trace, 0.0, 0, 1, tid=7)
    trace.record(
        500.0, "kernel.rx", mid=1, src=2, nack="busy", hint=50_000.0, tid=7
    )
    trace.record(10_000.0, "conn.busy_retry", mid=1, peer=2, attempt=1)
    tx(trace, 10_000.0, 0, 1, tid=7)
    verdicts = assert_identical(trace)
    assert any("SODA007" in v for v in verdicts)


# -- streaming semantics -----------------------------------------------


def test_open_state_stays_sublinear_on_a_long_run():
    """The whole point of checking as a stream: retained state tracks
    *open* transactions, not trace length."""
    built = build_workload("stream")
    checker = InvariantChecker(network=built.net)
    table = SinkTable(checker).install(built.net)
    net = built.run()
    checker.finish(ledger=net.ledger, end_time=table.end_time)
    assert table.records_fed > 300
    assert checker.peak_open_state * 10 < table.records_fed
    assert checker.peak_open_state < 40


def test_peak_open_state_equals_a_recount_after_every_record():
    """``peak_open_state`` comes from a live-message counter bumped where
    ``conn.live`` changes and two table sizes, noted only where state can
    grow; a brute-force recount after every record of a crash-and-failover
    KV cell must never disagree.  The "requester stopped waiting" marks
    stay a subset of the open cells throughout."""
    from repro.chaos.runner import chaos_config, make_schedule

    built = build_workload("kvstore_supervised", seed=3, config=chaos_config())
    make_schedule("primary_crash_load", built.spec).run(built)
    checker = InvariantChecker(network=built.net)
    table = SinkTable(checker)
    peak = 0
    for rec in built.net.sim.trace.records:
        table.feed(rec)
        open_now = recount(checker)
        assert checker.open_state() == open_now
        assert checker._abandoned <= checker._delivered.keys()
        peak = max(peak, open_now)
    # The whole crash-and-failover cell went through, not a stub: 5 699
    # records since a calm primary runs one idle round per quiet period
    # (8 082 before, 8 766 before the commit index rode the next round,
    # 9 810 before a round sent only the phases with something to carry,
    # 14 165 before the supervisor DISCOVERed each pattern once a poll).
    assert table.records_fed >= 5_699
    assert checker.peak_open_state == peak > 3


def test_violations_surface_mid_stream():
    checker = InvariantChecker(policy=RetransmitPolicy())
    trace = Tracer()
    trace.record(0.0, "kernel.interrupt", mid=3)
    trace.record(10.0, "kernel.interrupt", mid=3)
    SinkTable(checker).replay(trace.records)
    # INV-HANDLER is detectable the moment the nested interrupt lands,
    # before finish() runs the end-of-trace passes.
    assert any(v.invariant == "INV-HANDLER" for v in checker.violations)
