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
from repro.netreal import Impairments, RealNetwork
from repro.obs.spans import build_spans
from repro.workloads import EchoClient, EchoServer

#: Generous wall-clock cap; clean loopback runs finish in well under a
#: second.  pytest-timeout is not installed, so the cap is enforced by
#: run_until's own deadline.
TIMEOUT_US = 20_000_000.0

GRACE_US = 300_000.0


def _run_pingpong(impairments=None, rounds=2, seed=11):
    net = RealNetwork(seed=seed, impairments=impairments)
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
        finished = net.run_until(
            lambda: all(client.finished for client in clients),
            timeout=TIMEOUT_US,
        )
        net.run(until=net.now + GRACE_US)  # drain the final ACKs
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
        impairments=Impairments(loss_probability=0.15), seed=12
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
    net = RealNetwork(
        seed=14, impairments=Impairments(loss_probability=loss)
    )
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
        finished = net.run_until(lambda: client.finished, timeout=TIMEOUT_US)
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
