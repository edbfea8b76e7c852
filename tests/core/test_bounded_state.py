"""Kernel state is bounded by *open* work, not by history (§3.3, §5.2).

A long run of transactions between two nodes must leave every kernel
table exactly as large after the last transaction as after the first
few hundred: ``requests`` within MAXREQUESTS, ``delivered`` within the
few deliveries whose ACCEPT is still in flight, one connection, nothing
parked in ``_discovers``, at most the one ACCEPT the server is blocked
in within ``pending_accepts`` — and, once the traffic stops, nothing at
all.
"""

import pytest

from repro.bench.workloads import BENCH_PATTERN, AcceptingServer
from repro.core import Buffer, ClientProgram, KernelConfig, Network, RequestStatus
from repro.core.kernel import DeliveredState

#: Deliveries that may outlive their exchange for a moment: DONE, ACCEPT
#: not yet acknowledged.  A stop-and-wait connection and a requester
#: limited to MAXREQUESTS cannot have more in flight than that.
DELIVERED_BOUND = KernelConfig().max_requests


class SoakClient(ClientProgram):
    """``signals`` blocking B_SIGNALs, then ``exchanges`` B_EXCHANGEs."""

    def __init__(self, signals: int, exchanges: int, words: int = 16):
        self.signals = signals
        self.exchanges = exchanges
        self.payload = bytes(2 * words)
        self.done = 0
        self.statuses = set()

    def task(self, api):
        server = api.server_sig(0, BENCH_PATTERN)
        for _ in range(self.signals):
            completion = yield from api.b_signal(server)
            self.statuses.add(completion.status)
            self.done += 1
        for _ in range(self.exchanges):
            completion = yield from api.b_exchange(
                server, put=self.payload, get=Buffer(len(self.payload))
            )
            self.statuses.add(completion.status)
            self.done += 1
        yield from api.serve_forever()


def table_sizes(net):
    return {
        mid: {
            "requests": len(node.kernel.requests),
            "delivered": len(node.kernel.delivered),
            "connections": len(node.kernel.connections),
            "discovers": len(node.kernel._discovers),
            "pending_accepts": len(node.kernel.pending_accepts),
        }
        for mid, node in net.nodes.items()
    }


def assert_bounded(net):
    for mid, sizes in table_sizes(net).items():
        assert sizes["requests"] <= net.config.max_requests, (mid, sizes)
        assert sizes["delivered"] <= DELIVERED_BOUND, (mid, sizes)
        assert sizes["connections"] == 1, (mid, sizes)
        assert sizes["discovers"] == 0, (mid, sizes)
        # One client per node, so at most one blocking ACCEPT under way.
        assert sizes["pending_accepts"] <= 1, (mid, sizes)


def assert_drained(net):
    """With no transaction open, no table holds anything."""
    net.run(until=net.sim.now + 1_000_000.0)
    for mid, sizes in table_sizes(net).items():
        assert sizes == {
            "requests": 0,
            "delivered": 0,
            "connections": 1,
            "discovers": 0,
            "pending_accepts": 0,
        }, (mid, sizes)


def soak(signals: int, exchanges: int) -> None:
    net = Network(seed=11, keep_trace=False)
    net.add_node(program=AcceptingServer(reply_bytes=32), name="server")
    client = SoakClient(signals, exchanges)
    net.add_node(program=client, name="client", boot_at_us=100.0)
    total = signals + exchanges
    for share in (0.10, 0.50, 1.00):
        target = round(total * share)
        assert net.run_until(
            lambda: client.done >= target, timeout=total * 1_000_000.0
        ), f"stalled at {client.done}/{target}"
        # The same bound at every checkpoint: nothing grows with history.
        assert_bounded(net)
    assert client.statuses == {RequestStatus.COMPLETED}
    assert net.sim.trace.count("kernel.request") == total
    assert_drained(net)
    for node in net.nodes.values():
        assert node.kernel.leaked_probe_timers() == []


def test_tables_stay_bounded_over_eleven_thousand_transactions():
    soak(signals=10_000, exchanges=1_000)


@pytest.mark.slow
def test_tables_stay_bounded_over_a_hundred_thousand_transactions():
    soak(signals=100_000, exchanges=1_000)


# ---------------------------------------------------------------------------
# Across a client reset (§3.6.1).


class HoldingServer(ClientProgram):
    """ACCEPTs every SIGNAL except those with ``arg == HOLD``."""

    HOLD = 7

    def initialization(self, api, parent_mid):
        yield from api.advertise(BENCH_PATTERN)

    def handler(self, api, event):
        if event.is_arrival and event.arg != self.HOLD:
            yield from api.accept_current_signal()


class ResetRider(ClientProgram):
    """B_SIGNALs around one SIGNAL the server never ACCEPTs."""

    def __init__(self, before: int, after: int):
        self.before = before
        self.after = after
        self.done = 0
        self.held_outcome = None

    def handler(self, api, event):
        if event.is_completion and event.asker.tid == self.held_tid:
            self.held_outcome = (event.status, event.not_executed)
        return
        yield  # pragma: no cover

    def task(self, api):
        server = api.server_sig(0, BENCH_PATTERN)
        self.held_tid = None
        for _ in range(self.before):
            yield from api.b_signal(server)
            self.done += 1
        self.held_tid = yield from api.signal(server, arg=HoldingServer.HOLD)
        for _ in range(self.after):
            yield from api.b_signal(server)
            self.done += 1
        yield from api.serve_forever()


def test_state_stays_bounded_across_a_client_reset():
    before, after = 300, 300
    net = Network(
        seed=12, config=KernelConfig(probe_interval_us=50_000.0),
        keep_trace=False,
    )
    server_node = net.add_node(program=HoldingServer(), name="server")
    rider = ResetRider(before, after)
    net.add_node(program=rider, name="client", boot_at_us=100.0)

    assert net.run_until(lambda: rider.done >= before + 20, timeout=60e6)
    assert_bounded(net)
    kernel = server_node.kernel
    held = [
        sig for sig, d in kernel.delivered.items()
        if d.state is DeliveredState.DELIVERED
    ]
    assert len(held) == 1 and held[0].tid == rider.held_tid

    # The server's client dies holding it; the kernel remembers exactly
    # the live DELIVERED set, and a fresh client takes over.
    server_node.crash_client()
    assert kernel.crashed_unaccepted == set(held)
    assert kernel.requests == {} and kernel.delivered == {}
    server_node.client = None
    server_node.install_program(
        HoldingServer(), boot_at_us=net.sim.now + 5_000.0
    )

    assert net.run_until(lambda: rider.done >= before + after, timeout=120e6)
    assert net.run_until(lambda: rider.held_outcome is not None, timeout=10e6)
    # Probed arg=2: CRASHED, provably never executed.
    assert rider.held_outcome == (RequestStatus.CRASHED, True)
    assert_bounded(net)
    assert kernel.crashed_unaccepted == set(held)  # one incarnation's worth
