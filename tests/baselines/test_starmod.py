"""Tests for the \\*MOD baseline runtime."""

import pytest

from repro.baselines.starmod import StarModConfig, StarModNetwork


def test_sync_call_returns_reply():
    net = StarModNetwork(2, seed=1)
    server, client = net.nodes
    server.serve_port("echo", lambda data: data[::-1])
    results = []

    def body():
        reply = yield from client.sync_call(0, "echo", b"abcdef")
        results.append(reply)

    net.sim.spawn(body())
    net.run(until=10_000_000)
    assert results == [b"fedcba"]


def test_sync_call_latency_near_published():
    net = StarModNetwork(2, seed=1)
    server, client = net.nodes
    server.serve_port("p", lambda data: b"ok")
    times = []

    def body():
        for _ in range(4):
            t0 = net.sim.now
            yield from client.sync_call(0, "p", b"\x01\x02")
            times.append((net.sim.now - t0) / 1000.0)

    net.sim.spawn(body())
    net.run(until=10_000_000)
    mean = sum(times) / len(times)
    assert mean == pytest.approx(20.7, rel=0.15)


def test_async_send_latency_near_published():
    net = StarModNetwork(2, seed=1)
    server, client = net.nodes
    server.serve_port("p", lambda data: b"")
    marks = []

    def body():
        for _ in range(8):
            yield from client.async_send(0, "p", b"\x01\x02")
            marks.append(net.sim.now)

    net.sim.spawn(body())
    net.run(until=10_000_000)
    deltas = [(b - a) / 1000.0 for a, b in zip(marks, marks[1:])]
    mean = sum(deltas) / len(deltas)
    assert mean == pytest.approx(11.1, rel=0.15)


def test_async_messages_all_arrive_in_order():
    net = StarModNetwork(2, seed=2)
    server, client = net.nodes
    got = []
    server.serve_port("sink", lambda data: got.append(data) or b"")

    def body():
        for i in range(6):
            yield from client.async_send(0, "sink", bytes([i]))

    net.sim.spawn(body())
    net.run(until=10_000_000)
    assert got == [bytes([i]) for i in range(6)]


def test_sync_call_packet_count():
    net = StarModNetwork(2, seed=3)
    server, client = net.nodes
    server.serve_port("p", lambda data: b"ok")

    def body():
        yield from client.sync_call(0, "p", b"x")

    net.sim.spawn(body())
    net.run(until=10_000_000)
    total = sum(node.packets_sent for node in net.nodes)
    assert total == 4  # CALL, ACK, REPLY, ACK -- no piggybacking


def test_retransmission_on_loss():
    from repro.net.errors import FaultPlan

    net = StarModNetwork(2, seed=4)
    net.bus.faults.drop_next(1)
    server, client = net.nodes
    server.serve_port("p", lambda data: b"ok")
    results = []

    def body():
        reply = yield from client.sync_call(0, "p", b"x")
        results.append(reply)

    net.sim.spawn(body())
    net.run(until=10_000_000)
    assert results == [b"ok"]


def test_two_servers_independent_ports():
    net = StarModNetwork(3, seed=5)
    a, b, client = net.nodes
    a.serve_port("pa", lambda data: b"from-a")
    b.serve_port("pb", lambda data: b"from-b")
    results = []

    def body():
        results.append((yield from client.sync_call(0, "pa", b"")))
        results.append((yield from client.sync_call(1, "pb", b"")))

    net.sim.spawn(body())
    net.run(until=10_000_000)
    assert results == [b"from-a", b"from-b"]
