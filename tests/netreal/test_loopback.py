"""Tier-1 smoke: the unmodified SODA stack over real UDP sockets.

A whole network — server plus two ping-pong clients — on ONE event loop
in THIS process (no subprocesses; the multi-process path is exercised
by the CI ``real`` smoke job), bound to real loopback datagram sockets.
Hard wall-clock timeouts throughout: a wedged run fails, never hangs.

After the run, the standard batch analyzers audit the trace post-hoc —
the tentpole's claim is precisely that the sim-grade invariants hold
over the real transport.
"""

import pytest

from repro.analysis.causal import (
    build_causal_order,
    check_stream,
    detect_deadlocks,
)
from repro.net.errors import FaultPlan
from repro.netreal.node import RealNetwork
from repro.obs.spans import build_spans
from repro.workloads import EchoClient, EchoServer

from tests.conftest import quiescent

#: Generous wall-clock cap; clean loopback runs finish in well under a
#: second.  pytest-timeout is not installed, so the cap is enforced by
#: run_until's own deadline.
TIMEOUT_US = 20_000_000.0


def _run_pingpong(faults=None, rounds=2, seed=11):
    net = RealNetwork(seed=seed, faults=faults)
    try:
        server = EchoServer()
        clients = [EchoClient(rounds=rounds) for _ in range(2)]
        net.add_node(program=server, name="server")
        for index, client in enumerate(clients):
            net.add_node(
                program=client,
                name=f"ping{index + 1}",
                boot_at_us=30_000.0 * (index + 1),
            )
        # Then drain: the last ACCEPT is acked before the trace is read.
        finished = net.run_until(
            lambda: all(client.finished for client in clients),
            timeout=TIMEOUT_US,
        ) and net.run_until(lambda: quiescent(net), TIMEOUT_US)
        records = list(net.sim.trace.records)
    finally:
        net.close()
    return finished, clients, records


def test_pingpong_over_real_sockets():
    finished, clients, records = _run_pingpong()
    assert finished, "clients did not finish within the wall-clock cap"
    for client in clients:
        assert client.completions == ["completed"] * 2

    assert any(rec.category == "net.tx" for rec in records)
    violations = check_stream(records)
    assert violations == [], [v.format() for v in violations]

    causal = build_causal_order(records)
    assert causal.send_edges > 0
    assert causal.unmatched_rx == 0
    diagnostics = causal.finish() + detect_deadlocks(build_spans(records))
    assert diagnostics == [], [d.format() for d in diagnostics]


def test_pingpong_survives_seeded_loss():
    finished, clients, records = _run_pingpong(
        faults=FaultPlan(loss_probability=0.15), seed=12
    )
    assert finished, "clients did not finish despite retransmission"
    for client in clients:
        assert client.completions == ["completed"] * 2
    violations = check_stream(records)
    assert violations == [], [v.format() for v in violations]


def test_wall_clock_timestamps_are_real_and_ordered():
    finished, _, records = _run_pingpong()
    assert finished
    times = [rec.time for rec in records]
    assert times == sorted(times)
    # Wall-clock microseconds: floats with genuine sub-ms structure,
    # spanning at least the two boot offsets.
    assert any(isinstance(t, float) and t != int(t) for t in times)
    assert times[-1] > 60_000.0


def test_unknown_destination_vanishes_like_the_bus():
    """A frame to an unregistered MID is silently dropped, matching the
    simulator's absent-MID screening — no socket error escapes."""
    net = RealNetwork(seed=13)
    try:
        client = EchoClient(rounds=1)
        net.add_node(program=client, name="lonely")
        finished = net.run_until(lambda: client.finished, timeout=400_000.0)
        assert not finished  # nobody answers DISCOVER
        assert net.bus.frames_sent > 0
    finally:
        net.close()


@pytest.mark.parametrize("loss", [0.0, 0.3])
def test_decode_errors_are_contained(loss):
    """Garbage datagrams hit the counter, not the kernel."""
    net = RealNetwork(seed=14, faults=FaultPlan(loss_probability=loss))
    try:
        client = EchoClient(rounds=1)
        net.add_node(program=EchoServer(), name="server")
        net.add_node(program=client, name="ping", boot_at_us=20_000.0)
        addresses = net.sim.loop.run_until_complete(net.open())

        def spray() -> None:
            transport = net.bus._protocols[0].transport
            for junk in (b"", b"XX", b"SW\x01garbage", b"\xff" * 64):
                transport.sendto(junk, addresses[1])

        net.sim.schedule(10_000.0, spray)
        # Drain as _run_pingpong does: the last ACCEPT is acked.
        finished = net.run_until(
            lambda: client.finished, timeout=TIMEOUT_US
        ) and net.run_until(lambda: quiescent(net), TIMEOUT_US)
        assert finished
        assert client.completions == ["completed"]
        assert net.bus.decode_errors >= 3  # b"" may be dropped by the OS
        errors = [
            rec
            for rec in net.sim.trace.records
            if rec.category == "netreal.decode_error"
        ]
        assert len(errors) == net.bus.decode_errors
        assert all(rec["mid"] == 1 for rec in errors)
    finally:
        net.close()


@pytest.mark.parametrize(
    "plan, counter, category, kind",
    [
        ({"loss_probability": 0.3}, "frames_lost", "net.drop", None),
        ({"duplicate_probability": 0.3}, "deliveries_duplicated",
         "net.replay", "dup"),
        ({"reorder_probability": 0.3}, "deliveries_reordered",
         "net.replay", "reorder"),
    ],
    ids=["loss", "duplicate", "reorder"],
)
def test_the_bus_fault_plan_governs_real_deliveries(
    plan, counter, category, kind
):
    """The medium asks the bus's FaultPlan per delivery: each fault
    shows in the plan's own counter and as the bus's trace record."""
    faults = FaultPlan(**plan)
    finished, clients, records = _run_pingpong(faults=faults, seed=15)
    assert finished
    for client in clients:
        assert client.completions == ["completed"] * 2
    struck = [
        rec for rec in records
        if rec.category == category
        and (kind is None or rec["kind"] == kind)
    ]
    assert getattr(faults, counter) == len(struck) > 0
    violations = check_stream(records)
    assert violations == [], [v.format() for v in violations]


def test_a_datagram_leaves_after_its_kernel_tx_is_recorded():
    """A datagram is written only once the sender's ``kernel.tx`` for
    it is in the trace, so no peer can record the ``kernel.rx`` first
    (the merge of a multi-process run would then order rx before tx)."""
    from repro.netreal.wire import decode_frame

    net = RealNetwork(seed=16)
    late: list = []
    written: list = []
    sendto = net.bus._sendto

    def checked_sendto(src_mid, datagram, dst_mid):
        fid = decode_frame(datagram).frame_id
        written.append(fid)
        if not any(
            rec.category == "kernel.tx" and rec["fid"] == fid
            for rec in net.sim.trace.records
        ):
            late.append(fid)
        sendto(src_mid, datagram, dst_mid)

    net.bus._sendto = checked_sendto
    try:
        client = EchoClient(rounds=2)
        net.add_node(program=EchoServer(), name="server")
        net.add_node(program=client, name="ping", boot_at_us=20_000.0)
        assert net.run_until(lambda: client.finished, timeout=TIMEOUT_US)
        assert net.run_until(lambda: quiescent(net), TIMEOUT_US)
    finally:
        net.close()
    assert written and late == []
