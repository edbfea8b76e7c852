"""Causal engine tests: vector-clock properties on fabricated and real
traces, seeded-bug fixtures per SODA010-012 rule, and the SODA013
dining-philosophers no-arbitration deadlock."""

from __future__ import annotations

import pytest

from repro.analysis.causal import (
    build_causal_order,
    detect_deadlocks,
    find_races,
)
from repro.analysis.causal.clocks import happens_before_pairs
from repro.analysis.causal.waitfor import build_wait_graph
from repro.workloads import (
    CAUSAL_WORKLOADS,
    WORKLOADS,
    run_workload,
)
from repro.net.frame import BROADCAST_MID
from repro.sim.tracing import Tracer


def order_of(trace):
    return build_causal_order(list(trace.records))


def rules(diagnostics):
    return [d.rule_id for d in diagnostics]


# -- vector clocks on fabricated traces --------------------------------


def test_program_order_is_happens_before():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1, fid=100)
    order = order_of(trace)
    assert order.happens_before(0, 1)
    assert not order.happens_before(1, 0)


def test_frame_id_draws_the_send_receive_edge():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1, fid=100)
    trace.record(20.0, "kernel.rx", mid=1, src=0, fid=100)
    trace.record(
        30.0, "kernel.delivered_state", mid=1, src=0, tid=1, state="delivered"
    )
    order = order_of(trace)
    assert order.send_edges == 1
    assert order.unmatched_rx == 0
    # The REQUEST is in the delivery's causal past, through the wire.
    assert order.happens_before(0, 3)
    assert happens_before_pairs(order, [0, 3]) == [(0, 3)]


def test_events_without_an_edge_are_concurrent():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(5.0, "kernel.advertise", mid=1, pattern=0o700)
    order = order_of(trace)
    assert order.concurrent(0, 1)
    assert not order.ordered(0, 1)


def test_missing_fid_degrades_to_no_edge():
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1)  # no fid
    trace.record(10.0, "kernel.rx", mid=1, src=0)  # no fid
    order = order_of(trace)
    assert order.send_edges == 0
    assert order.unmatched_rx == 0
    assert order.concurrent(0, 1)


def test_unmatched_frame_id_is_counted():
    trace = Tracer()
    trace.record(0.0, "kernel.rx", mid=1, src=0, fid=999)
    order = order_of(trace)
    assert order.unmatched_rx == 1


def test_broadcast_frame_fans_out_to_every_receiver():
    trace = Tracer()
    trace.record(
        0.0, "kernel.tx", mid=0, dst=BROADCAST_MID, seq=0, pid=1, fid=7
    )
    trace.record(10.0, "kernel.rx", mid=1, src=0, fid=7)
    trace.record(20.0, "kernel.rx", mid=2, src=0, fid=7)
    order = order_of(trace)
    assert order.send_edges == 2
    assert order.happens_before(0, 1)
    assert order.happens_before(0, 2)


def test_unicast_frame_joins_exactly_one_receiver():
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1, fid=7)
    trace.record(10.0, "kernel.rx", mid=1, src=0, fid=7)
    trace.record(20.0, "kernel.rx", mid=2, src=0, fid=7)  # stale duplicate
    order = order_of(trace)
    assert order.send_edges == 1
    assert order.unmatched_rx == 1


def test_client_reset_starts_a_new_process_in_program_order():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.client_reset", mid=0, epoch=1)
    trace.record(20.0, "kernel.request", mid=0, tid=1, dst=1)
    order = order_of(trace)
    assert order.proc(0) == (0, 0)
    assert order.proc(1) == (0, 1)  # the reset opens the new incarnation
    assert order.proc(2) == (0, 1)
    # Epochs chain: one physical kernel executes both incarnations.
    assert order.happens_before(0, 2)
    assert order.processes == [(0, 0), (0, 1)]


def test_real_echo_trace_orders_every_transaction():
    net = run_workload("echo")
    records = list(net.sim.trace.records)
    order = build_causal_order(records)
    assert order.unmatched_rx == 0
    assert order.send_edges > 0
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
    for events in by_txn.values():
        if {"req", "del", "done"} <= set(events):
            assert order.happens_before(events["req"], events["del"])
            assert order.happens_before(events["del"], events["done"])
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
    records = list(trace.records)
    diags = find_races(records, build_causal_order(records))
    assert rules(diags) == ["SODA010"]
    assert "delivered at the server without the issuing REQUEST" in (
        diags[0].message
    )
    assert "clock-concurrent" in diags[0].witness


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
    records = list(trace.records)
    diags = find_races(records, build_causal_order(records))
    assert rules(diags) == ["SODA010"]
    assert "completed COMPLETED without its delivery" in diags[0].message


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
    records = list(trace.records)
    assert find_races(records, build_causal_order(records)) == []


def test_soda010_needs_an_order_to_fire():
    # Without clocks the rule cannot distinguish inversion from benign
    # trace-order jitter, so it stays silent rather than guess.
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(
        20.0, "kernel.delivered_state", mid=1, src=0, tid=5, state="delivered"
    )
    assert find_races(list(trace.records)) == []


# -- SODA011: ACCEPT/reset race ----------------------------------------


def test_soda011_completion_in_a_later_incarnation():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(10.0, "kernel.client_reset", mid=0, epoch=1)
    trace.record(20.0, "kernel.complete", mid=0, tid=5, status="completed")
    diags = find_races(list(trace.records))
    assert rules(diags) == ["SODA011"]
    assert "issued by incarnation e0 but completed COMPLETED in e1" in (
        diags[0].message
    )
    assert diags[0].witness  # the reset boundary is the witness


def test_soda011_ignores_non_completed_statuses():
    # A CRASHED/CANCELLED completion after a reset is the kernel doing
    # its job (tearing the transaction down), not a resurrection.
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(10.0, "kernel.client_reset", mid=0, epoch=1)
    trace.record(20.0, "kernel.complete", mid=0, tid=5, status="crashed")
    assert find_races(list(trace.records)) == []


def test_soda011_same_incarnation_is_clean():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=5, dst=1)
    trace.record(20.0, "kernel.complete", mid=0, tid=5, status="completed")
    assert find_races(list(trace.records)) == []


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
    diags = find_races(list(trace.records))
    assert rules(diags) == ["SODA012"]
    assert "across mid 1's incarnation boundary" in diags[0].message


def test_soda012_connection_resurrection_after_crash():
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1)
    trace.record(10.0, "kernel.crash", mid=0)
    trace.record(20.0, "conn.retransmit", mid=0, peer=1, kind="data")
    diags = find_races(list(trace.records))
    assert rules(diags) == ["SODA012"]
    assert "after mid 0's power failure with no fresh transmission" in (
        diags[0].message
    )


def test_soda012_connection_clean_after_fresh_transmission():
    trace = Tracer()
    trace.record(0.0, "kernel.tx", mid=0, dst=1, seq=0, pid=1)
    trace.record(10.0, "kernel.crash", mid=0)
    trace.record(20.0, "kernel.tx", mid=0, dst=1, seq=0, pid=2)
    trace.record(30.0, "conn.retransmit", mid=0, peer=1, kind="data")
    assert find_races(list(trace.records)) == []


def test_soda012_cross_epoch_unadvertise():
    trace = Tracer()
    trace.record(0.0, "kernel.advertise", mid=0, pattern=0o700)
    trace.record(10.0, "kernel.client_reset", mid=0, epoch=1)
    trace.record(20.0, "kernel.unadvertise", mid=0, pattern=0o700)
    diags = find_races(list(trace.records))
    assert rules(diags) == ["SODA012"]
    assert "advertisement-table entry" in diags[0].message


def test_soda012_same_epoch_unadvertise_is_clean():
    trace = Tracer()
    trace.record(0.0, "kernel.advertise", mid=0, pattern=0o700)
    trace.record(20.0, "kernel.unadvertise", mid=0, pattern=0o700)
    assert find_races(list(trace.records)) == []


# -- SODA013: wait-for deadlock ----------------------------------------


def test_soda013_two_node_cycle_from_pending_spans():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.request", mid=1, tid=1, dst=0)
    diags = detect_deadlocks(list(trace.records))
    assert rules(diags) == ["SODA013"]
    assert "wait-for cycle among mids {0, 1}" in diags[0].message
    assert any("mid 0 blocked on REQUEST" in w for w in diags[0].witness)


def test_soda013_completed_spans_draw_no_edges():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.request", mid=1, tid=1, dst=0)
    trace.record(20.0, "kernel.complete", mid=0, tid=1, status="completed")
    trace.record(30.0, "kernel.complete", mid=1, tid=1, status="completed")
    assert detect_deadlocks(list(trace.records)) == []


def test_soda013_chain_without_cycle_is_clean():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=0, tid=1, dst=1)
    trace.record(10.0, "kernel.request", mid=1, tid=1, dst=2)
    assert detect_deadlocks(list(trace.records)) == []


def test_soda013_self_loop_counts():
    trace = Tracer()
    trace.record(0.0, "kernel.request", mid=3, tid=1, dst=3)
    diags = detect_deadlocks(list(trace.records))
    assert rules(diags) == ["SODA013"]
    assert "{3}" in diags[0].message


def test_philosophers_noarb_deadlocks_with_the_full_ring():
    """The §4.4.3 dining philosophers without arbitration (grab your own
    fork first) must produce the textbook 5-cycle."""
    net = run_workload("philosophers_noarb")
    records = list(net.sim.trace.records)
    graph = build_wait_graph(records)
    diags = detect_deadlocks(records)
    assert rules(diags) == ["SODA013"]
    assert "wait-for cycle among mids {0, 1, 2, 3, 4}" in diags[0].message
    # Each philosopher holds its own fork and waits on its left neighbour.
    assert len(diags[0].witness) >= 5
    assert set(graph.nodes) == {0, 1, 2, 3, 4}
    # The deadlock is causal, not a trace artifact: no races on top.
    assert find_races(records, build_causal_order(records)) == []


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
    assert detect_deadlocks(list(net.sim.trace.records)) == []


# -- zero false positives on healthy runs ------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shipped_workloads_are_race_and_deadlock_free(name):
    net = run_workload(name)
    records = list(net.sim.trace.records)
    order = build_causal_order(records)
    diags = find_races(records, order) + detect_deadlocks(records)
    assert diags == [], "\n".join(d.format() for d in diags)


def test_causal_workloads_do_not_leak_into_the_standard_set():
    assert "philosophers_noarb" in CAUSAL_WORKLOADS
    assert "philosophers_noarb" not in WORKLOADS
    assert set(WORKLOADS) < set(CAUSAL_WORKLOADS)
