"""Causal engine tests: vector-clock properties on fabricated and real
traces, seeded-bug fixtures per SODA010-012 rule with their exact
witness text, and the SODA013 dining-philosophers no-arbitration
deadlock.

The clock tests query the events :meth:`CausalSink.stamp` returns, not
record indices.  ``test_soda010_needs_an_order_to_fire`` is gone with
the ``order=None`` path of ``find_races``: the sink always keeps clocks,
so every witness carries its clock annotation, and
``test_soda010_delivery_without_request_in_causal_past`` pins the
clock-concurrent one.
"""

from __future__ import annotations

import pytest

from repro.analysis.causal import (
    CausalSink,
    build_causal_order,
    build_wait_graph,
    detect_deadlocks,
)
from repro.analysis.causal.sink import concurrent, happens_before
from repro.obs.spans import build_spans
from repro.workloads import (
    CAUSAL_WORKLOADS,
    WORKLOADS,
    run_workload,
)
from repro.net.frame import BROADCAST_MID
from repro.sim.tracing import Tracer


def stamped(trace):
    """``(sink, events)``: every record of ``trace`` stamped in order."""
    sink = CausalSink()
    return sink, [sink.stamp(rec) for rec in trace.records]


def races(trace):
    return build_causal_order(trace.records).finish()


def deadlocks(trace):
    return detect_deadlocks(build_spans(trace.records))


def rules(diagnostics):
    return [d.rule_id for d in diagnostics]


# -- vector clocks on fabricated traces --------------------------------


def test_program_order_is_happens_before():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1, fid=100)
    _, ev = stamped(trace)
    assert happens_before(ev[0], ev[1])
    assert not happens_before(ev[1], ev[0])


def test_frame_id_draws_the_send_receive_edge():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1, fid=100)
    trace.record(20.0, "kernel.rx", mid=1, src=0, fid=100)
    trace.record(
        30.0, "kernel.delivered_state", mid=1, src=0, tid=1, state="delivered"
    )
    sink, ev = stamped(trace)
    assert sink.send_edges == 1
    assert sink.unmatched_rx == 0
    # The REQUEST is in the delivery's causal past, through the wire.
    assert happens_before(ev[0], ev[3])
    assert not happens_before(ev[3], ev[0])


def test_events_without_an_edge_are_concurrent():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(5.0, "kernel.advertise", mid=1, pattern=0o700)
    _, ev = stamped(trace)
    assert concurrent(ev[0], ev[1])
    assert not happens_before(ev[0], ev[1])
    assert not happens_before(ev[1], ev[0])


def test_missing_fid_degrades_to_no_edge():
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1)  # no fid
    trace.record(10.0, "kernel.rx", mid=1, src=0)  # no fid
    sink, ev = stamped(trace)
    assert sink.send_edges == 0
    assert sink.unmatched_rx == 0
    assert concurrent(ev[0], ev[1])


def test_unmatched_frame_id_is_counted():
    trace = Tracer()
    trace.record(0.0, "kernel.rx", mid=1, src=0, fid=999)
    sink, _ = stamped(trace)
    assert sink.unmatched_rx == 1


def test_a_frame_clock_lives_one_packet_lifetime():
    """A frame's clock is kept until the stream passes its tx time plus
    the maximum packet lifetime: an rx at the lifetime still draws the
    edge, a later one draws none and counts as late (a transport
    violation, reported once as SODA014), and a frame id never sent
    still counts as unmatched (a replayed frame makes those legitimately:
    no verdict)."""
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=BROADCAST_MID, seq=0, pid=1, fid=100)
    trace.record(50.0, "kernel.rx", mid=1, src=0, fid=100)
    trace.record(51.0, "kernel.rx", mid=2, src=0, fid=100)
    trace.record(60.0, "kernel.rx", mid=2, src=0, fid=101)
    sink = CausalSink(mpl_us=50.0)
    ev = [sink.stamp(rec) for rec in trace.records]
    assert (sink.send_edges, sink.late_rx, sink.unmatched_rx) == (1, 1, 1)
    assert happens_before(ev[0], ev[1])
    assert concurrent(ev[0], ev[2])
    (late,) = sink.finish()
    assert (late.rule_id, late.time, late.mid) == ("SODA014", 51.0, 2)
    assert "1 rx record(s) arrived more than" in late.message
    assert sink.finish() == [late]


def test_frame_clocks_are_bounded_by_the_packet_lifetime():
    """State bounded by open work, not by history: with the lifetime
    from the network's config, the broadcast and lost frames of a whole
    20 s supervised KV run are not all kept to the horizon."""
    net = run_workload("kvstore_supervised")
    bounded, unbounded = CausalSink(net.config.deltat.mpl_us), CausalSink()
    for rec in net.sim.trace.records:
        bounded.stamp(rec)
        unbounded.stamp(rec)
    assert bounded.send_edges == unbounded.send_edges > 0
    assert (bounded.late_rx, bounded.unmatched_rx) == (0, 0)
    end = net.sim.trace.records[-1].time
    assert all(
        expiry >= end for expiry, _mid, _fid in bounded._lifetimes
    )
    assert len(bounded._frames) < len(unbounded._frames) / 10


def test_broadcast_frame_fans_out_to_every_receiver():
    trace = Tracer()
    trace.record(
        0.0, "kernel.tx", mid=0, dst=BROADCAST_MID, seq=0, pid=1, fid=7
    )
    trace.record(10.0, "kernel.rx", mid=1, src=0, fid=7)
    trace.record(20.0, "kernel.rx", mid=2, src=0, fid=7)
    sink, ev = stamped(trace)
    assert sink.send_edges == 2
    assert happens_before(ev[0], ev[1])
    assert happens_before(ev[0], ev[2])


def test_unicast_frame_joins_exactly_one_receiver():
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1, fid=7)
    trace.record(10.0, "kernel.rx", mid=1, src=0, fid=7)
    trace.record(20.0, "kernel.rx", mid=2, src=0, fid=7)  # stale duplicate
    sink, _ = stamped(trace)
    assert sink.send_edges == 1
    assert sink.unmatched_rx == 1


def test_client_reset_starts_a_new_process_in_program_order():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.client_reset", mid=0, epoch=1)
    trace.record(20.0, "kernel.request", mid=0, tid=1, dst=1)
    sink, ev = stamped(trace)
    assert [(e.mid, e.epoch) for e in ev] == [(0, 0), (0, 1), (0, 1)]
    # The reset opens the new incarnation; epochs chain: one physical
    # kernel executes both incarnations.
    assert happens_before(ev[0], ev[2])
    assert sink.processes == [(0, 0), (0, 1)]


def test_real_echo_trace_orders_every_transaction():
    net = run_workload("echo")
    records = list(net.sim.trace.records)
    sink = CausalSink()
    events = [sink.stamp(rec) for rec in records]
    assert sink.unmatched_rx == 0
    assert sink.send_edges > 0
    by_txn = {}
    for idx, rec in enumerate(records):
        if rec.category == "kernel.request":
            by_txn.setdefault((rec["mid"], rec["tid"]), {})["req"] = idx
        elif (
            rec.category == "kernel.delivered_state"
            and rec["state"] == "delivered"
        ):
            by_txn.setdefault((rec["src"], rec["tid"]), {})["del"] = idx
        elif rec.category == "kernel.complete":
            by_txn.setdefault((rec["mid"], rec["tid"]), {})["done"] = idx
    checked = 0
    for by in by_txn.values():
        if {"req", "del", "done"} <= set(by):
            req, dlv, done = (events[i] for i in (
                by["req"], by["del"], by["done"]
            ))
            assert happens_before(req, dlv)
            assert happens_before(dlv, done)
            checked += 1
    assert checked > 0


# -- SODA010: causality inversion --------------------------------------


def test_soda010_delivery_without_request_in_causal_past():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    # Delivery with no wire edge back to the REQUEST: clock-concurrent.
    trace.record(
        20.0, "kernel.delivered_state", mid=1, src=0, tid=5, state="delivered"
    )
    diags = races(trace)
    assert rules(diags) == ["SODA010"]
    assert "delivered at the server without the issuing REQUEST" in (
        diags[0].message
    )
    assert diags[0].witness == (
        "#0 t=0.000ms kernel.request [mid=0/e0]",
        "#1 t=0.020ms kernel.delivered_state [mid=1/e0]",
        "clock-concurrent",
    )


def test_soda010_completion_without_delivery_in_causal_past():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(10.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1, fid=1)
    trace.record(20.0, "kernel.rx", mid=1, src=0, fid=1)
    trace.record(
        30.0, "kernel.delivered_state", mid=1, src=0, tid=5, state="delivered"
    )
    # COMPLETED interrupt with no reply frame: the effect has no cause.
    trace.record(40.0, "kernel.complete", mid=0, tid=5, status="completed")
    diags = races(trace)
    assert rules(diags) == ["SODA010"]
    assert "completed COMPLETED without its delivery" in diags[0].message
    assert diags[0].witness == (
        "#3 t=0.030ms kernel.delivered_state [mid=1/e0]",
        "#4 t=0.040ms kernel.complete [mid=0/e0]",
        "clock-concurrent",
    )


def test_soda010_clean_when_wire_edges_close_the_loop():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(10.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1, fid=1)
    trace.record(20.0, "kernel.rx", mid=1, src=0, fid=1)
    trace.record(
        30.0, "kernel.delivered_state", mid=1, src=0, tid=5, state="delivered"
    )
    trace.record(40.0, "kernel.tx", mid=1, dst=0, seq=0, pid=2, fid=2)
    trace.record(50.0, "kernel.rx", mid=0, src=1, fid=2)
    trace.record(60.0, "kernel.complete", mid=0, tid=5, status="completed")
    assert races(trace) == []


# -- SODA011: ACCEPT/reset race ----------------------------------------


def test_soda011_completion_in_a_later_incarnation():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(10.0, "kernel.client_reset", mid=0, epoch=1)
    trace.record(20.0, "kernel.complete", mid=0, tid=5, status="completed")
    diags = races(trace)
    assert rules(diags) == ["SODA011"]
    assert "issued by incarnation e0 but completed COMPLETED in e1" in (
        diags[0].message
    )
    # The reset boundary is the witness.
    assert diags[0].witness == (
        "#1 t=0.010ms kernel.client_reset [mid=0/e1]",
        "#2 t=0.020ms kernel.complete [mid=0/e1]",
    )


def test_soda011_ignores_non_completed_statuses():
    # A CRASHED/CANCELLED completion after a reset is the kernel doing
    # its job (tearing the transaction down), not a resurrection.
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(10.0, "kernel.client_reset", mid=0, epoch=1)
    trace.record(20.0, "kernel.complete", mid=0, tid=5, status="crashed")
    assert races(trace) == []


def test_soda011_same_incarnation_is_clean():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(20.0, "kernel.complete", mid=0, tid=5, status="completed")
    assert races(trace) == []


# -- SODA012: shared-state write across a reset ------------------------


def test_soda012_delivered_cell_advances_across_reset():
    trace = Tracer()
    trace.record(
        0.0, "kernel.delivered_state", mid=1, src=0, tid=5, state="delivered"
    )
    trace.record(10.0, "kernel.client_reset", mid=1, epoch=1)
    trace.record(
        20.0, "kernel.delivered_state", mid=1, src=0, tid=5, state="accepted"
    )
    diags = races(trace)
    assert rules(diags) == ["SODA012"]
    assert "across mid 1's incarnation boundary" in diags[0].message
    assert diags[0].witness == (
        "#1 t=0.010ms kernel.client_reset [mid=1/e1]",
        "#2 t=0.020ms kernel.delivered_state [mid=1/e1]",
    )


def test_soda012_connection_resurrection_after_crash():
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1)
    trace.record(10.0, "kernel.crash", mid=0)
    trace.record(20.0, "conn.retransmit", mid=0, peer=1, kind="data")
    diags = races(trace)
    assert rules(diags) == ["SODA012"]
    assert "after mid 0's power failure with no fresh transmission" in (
        diags[0].message
    )
    assert diags[0].witness == (
        "#1 t=0.010ms kernel.crash [mid=0/e0]",
        "#2 t=0.020ms conn.retransmit [mid=0/e0]",
    )


def test_soda012_connection_clean_after_fresh_transmission():
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1)
    trace.record(10.0, "kernel.crash", mid=0)
    trace.record(20.0, "kernel.tx", mid=0, dst=1, seq=0, pid=2)
    trace.record(30.0, "conn.retransmit", mid=0, peer=1, kind="data")
    assert races(trace) == []


def test_soda012_cross_epoch_unadvertise():
    trace = Tracer()
    trace.record(0.0, "kernel.advertise", mid=0, pattern=0o700)
    trace.record(10.0, "kernel.client_reset", mid=0, epoch=1)
    trace.record(20.0, "kernel.unadvertise", mid=0, pattern=0o700)
    diags = races(trace)
    assert rules(diags) == ["SODA012"]
    assert "advertisement-table entry" in diags[0].message
    assert diags[0].witness == (
        "#1 t=0.010ms kernel.client_reset [mid=0/e1]",
        "#2 t=0.020ms kernel.unadvertise [mid=0/e1]",
    )


def test_soda012_same_epoch_unadvertise_is_clean():
    trace = Tracer()
    trace.record(0.0, "kernel.advertise", mid=0, pattern=0o700)
    trace.record(20.0, "kernel.unadvertise", mid=0, pattern=0o700)
    assert races(trace) == []


# -- SODA013: wait-for deadlock ----------------------------------------


def test_soda013_two_node_cycle_from_pending_spans():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.request", mid=1, tid=1, dst=0)
    diags = deadlocks(trace)
    assert rules(diags) == ["SODA013"]
    assert "wait-for cycle among mids {0, 1}" in diags[0].message
    assert any("mid 0 blocked on REQUEST" in w for w in diags[0].witness)


def test_soda013_completed_spans_draw_no_edges():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.request", mid=1, tid=1, dst=0)
    trace.record(20.0, "kernel.complete", mid=0, tid=1, status="completed")
    trace.record(30.0, "kernel.complete", mid=1, tid=1, status="completed")
    assert deadlocks(trace) == []


def test_soda013_chain_without_cycle_is_clean():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.request", mid=1, tid=1, dst=2)
    assert deadlocks(trace) == []


def test_soda013_self_loop_counts():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=3, tid=1, dst=3)
    diags = deadlocks(trace)
    assert rules(diags) == ["SODA013"]
    assert "{3}" in diags[0].message


def test_philosophers_noarb_deadlocks_with_the_full_ring():
    """The §4.4.3 dining philosophers without arbitration (grab your own
    fork first) must produce the textbook 5-cycle."""
    net = run_workload("philosophers_noarb")
    spans = build_spans(net.sim.trace.records)
    graph = build_wait_graph(spans)
    diags = detect_deadlocks(spans)
    assert rules(diags) == ["SODA013"]
    assert "wait-for cycle among mids {0, 1, 2, 3, 4}" in diags[0].message
    # Each philosopher holds its own fork and waits on its left neighbour.
    assert len(diags[0].witness) >= 5
    assert set(graph.nodes) == {0, 1, 2, 3, 4}
    # The deadlock is causal, not a trace artifact: no races on top.
    assert races(net.sim.trace) == []


def test_arbitrated_philosophers_do_not_deadlock():
    # The shipped variant (grab-left-first plus the §4.4.3 detector)
    # finishes every meal; no wait-for cycle survives to end of trace.
    from repro.apps.philosophers import DeadlockDetector, Philosopher
    from repro.core import Network
    from repro.facilities.timeservice import TimeServer

    n = 3
    net = Network(seed=114)
    philosophers = []
    for i in range(n):
        philosopher = Philosopher(
            left_mid=(i - 1) % n, think_us=500.0, eat_us=500.0,
            meals_target=2,
        )
        philosophers.append(philosopher)
        net.add_node(mid=i, program=philosopher, boot_at_us=i * 20.0)
    net.add_node(mid=n, program=TimeServer())
    net.add_node(
        mid=n + 1,
        program=DeadlockDetector(list(range(n)), interval_ms=10),
        boot_at_us=500.0,
    )
    done = net.run_until(
        lambda: all(p.meals >= 2 for p in philosophers),
        timeout=600_000_000.0,
    )
    assert done, [p.meals for p in philosophers]
    assert deadlocks(net.sim.trace) == []


# -- zero false positives on healthy runs ------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shipped_workloads_are_race_and_deadlock_free(name):
    net = run_workload(name)
    diags = races(net.sim.trace) + deadlocks(net.sim.trace)
    assert diags == [], "\n".join(d.format() for d in diags)


def test_causal_workloads_do_not_leak_into_the_standard_set():
    assert "philosophers_noarb" in CAUSAL_WORKLOADS
    assert "philosophers_noarb" not in WORKLOADS
    assert set(WORKLOADS) < set(CAUSAL_WORKLOADS)
