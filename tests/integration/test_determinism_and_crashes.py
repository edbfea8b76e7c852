"""Whole-run determinism and mid-exchange crash behaviour."""

from repro.analysis.invariants import check_network
from repro.core import (
    AcceptStatus,
    Buffer,
    ClientProgram,
    KernelConfig,
    Network,
    RequestStatus,
)
from repro.core.patterns import make_well_known_pattern
from repro.net.errors import FaultPlan
from repro.obs.spans import build_spans

from tests.conftest import ECHO_PATTERN, EchoServer

PATTERN = make_well_known_pattern(0o564)


def _run_fingerprint(seed: int) -> tuple:
    """A busy little network; returns a digest of everything observable."""
    net = Network(seed=seed, faults=FaultPlan(loss_probability=0.05))
    server = EchoServer(greeting=b"abcdefgh")
    net.add_node(program=server)
    results = []

    class Chatter(ClientProgram):
        def __init__(self, n):
            self.n = n

        def task(self, api):
            sig = api.server_sig(0, ECHO_PATTERN)
            for i in range(self.n):
                buf = Buffer(8)
                completion = yield from api.b_exchange(
                    sig, put=bytes([i] * (i + 1)), get=buf
                )
                results.append((api.my_mid, i, completion.status.value, buf.data))
            yield from api.serve_forever()

    net.add_node(program=Chatter(4), boot_at_us=100.0)
    net.add_node(program=Chatter(3), boot_at_us=150.0)
    net.run(until=60_000_000.0)
    return (
        tuple(results),
        net.bus.frames_sent,
        net.bus.bytes_sent,
        round(net.ledger.total(), 6),
        net.sim.events_processed,
    )


def test_identical_seeds_identical_universes():
    assert _run_fingerprint(31) == _run_fingerprint(31)


def test_different_seeds_differ_somewhere():
    # With 5% loss the fault draws differ, so packet counts diverge.
    a = _run_fingerprint(31)
    b = _run_fingerprint(32)
    assert a != b
    # ...but application-level outcomes are equally correct in both.
    assert [r[2] for r in a[0]] == ["completed"] * 7
    assert [r[2] for r in b[0]] == ["completed"] * 7


def test_requester_node_crash_mid_exchange_unblocks_server():
    """The requester's whole node dies while the server's data-carrying
    ACCEPT is waiting for the transport ack: the ACCEPT must resolve
    CRASHED once retransmissions exhaust (bounded time, §6.10)."""
    net = Network(seed=33, config=KernelConfig(probe_interval_us=50_000.0))
    outcome = {}

    class SlowAcceptServer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                outcome["arrived_at"] = api.now
                # Data-carrying accept: blocks awaiting the ack.
                status = yield from api.accept_current_get(put=b"d" * 64)
                outcome["accept"] = status
                outcome["accept_done_at"] = api.now

    net.add_node(program=SlowAcceptServer())
    requester_node = net.add_node()

    class Requester(ClientProgram):
        def task(self, api):
            yield from api.get(api.server_sig(0, PATTERN), get=Buffer(64))
            yield from api.serve_forever()

    requester_node.install_program(Requester(), boot_at_us=50.0)
    # Crash the whole requester node right as the ACCEPT's data is in
    # flight: after the request arrives at the server.
    def crash_when_arrived():
        if "arrived_at" in outcome:
            requester_node.crash()
        else:
            net.sim.schedule(1_000.0, crash_when_arrived)

    net.sim.schedule(5_000.0, crash_when_arrived)
    net.run(until=60_000_000.0)
    assert outcome.get("accept") is AcceptStatus.CRASHED
    # Bounded: within the retransmission-exhaustion window, well under
    # the run horizon.
    assert outcome["accept_done_at"] - outcome["arrived_at"] < 5_000_000.0


def test_server_node_crash_fails_inflight_and_future_requests():
    net = Network(seed=34, config=KernelConfig(probe_interval_us=50_000.0))
    server_node = net.add_node(program=EchoServer())
    statuses = []

    class Persistent(ClientProgram):
        def task(self, api):
            sig = api.server_sig(0, ECHO_PATTERN)
            for _ in range(3):
                completion = yield from api.b_signal(sig)
                statuses.append(completion.status)
                yield api.compute(400_000)
            yield from api.serve_forever()

    net.add_node(program=Persistent(), boot_at_us=100.0)
    net.sim.schedule(250_000.0, server_node.crash)
    net.run(until=120_000_000.0)
    assert statuses[0] is RequestStatus.COMPLETED
    assert all(
        s in (RequestStatus.CRASHED, RequestStatus.UNADVERTISED)
        for s in statuses[1:]
    )


# -- DIE/BOOT boundary regressions (found by the chaos sweep) ---------------


def test_accept_ack_across_die_boundary_does_not_resurrect_tid():
    """The server's client DIEs while its data-carrying ACCEPT is still
    awaiting the transport ack.  When the ack finally lands, the dead
    incarnation's DeliveredRequest must stay dead — no
    ``kernel.delivered_state`` record after ``kernel.client_reset``."""
    net = Network(seed=41)
    server_node = net.add_node()

    class GetServer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_get(put=b"g" * 32)

    server_node.install_program(GetServer())

    class Requester(ClientProgram):
        def task(self, api):
            yield from api.get(api.server_sig(0, PATTERN), get=Buffer(32))
            yield from api.serve_forever()

    requester_node = net.add_node(program=Requester(), boot_at_us=50.0)

    trace = net.sim.trace
    accepted = lambda: trace.counters.get("kernel.accept", 0) > 0
    assert net.sim.run_until(accepted, timeout=5_000_000.0)
    # Sever requester->server so the ACCEPT's transport ack cannot land.
    sever = lambda frame, rx: (
        frame.src == requester_node.kernel.mid
        and rx == server_node.kernel.mid
    )
    net.bus.faults.add_drop_predicate(sever)
    # The client dies while the ACCEPT is still outstanding...
    net.sim.schedule(5_000.0, server_node.kernel.client_die)
    # ...and the ack arrives after the DIE, via a later retransmission.
    net.sim.schedule(130_000.0, net.bus.faults.remove_drop_predicate, sever)
    net.run(until=10_000_000.0)

    reset_at = next(
        r.time
        for r in trace.records
        if r.category == "kernel.client_reset"
        and r["mid"] == server_node.kernel.mid
    )
    late = [
        r
        for r in trace.records
        if r.category == "kernel.delivered_state"
        and r["mid"] == server_node.kernel.mid
        and r.time > reset_at
    ]
    assert late == [], f"dead incarnation resurrected: {late}"
    assert check_network(net) == []


def test_client_die_cancels_open_discover_windows():
    """DIE while a DISCOVER window is open: the dead incarnation's
    query state (and its timer) must be torn down, not left to absorb
    late DISCOVER_REPLYs."""
    net = Network(seed=42)
    node = net.add_node()

    class Discoverer(ClientProgram):
        def task(self, api):
            # Nobody advertises this; discover() retries forever.
            yield from api.discover(make_well_known_pattern(0o777))

    node.install_program(Discoverer())
    in_window = lambda: bool(node.kernel._discovers)
    assert net.sim.run_until(in_window, timeout=5_000_000.0)
    node.kernel.client_die()
    assert node.kernel._discovers == {}
    net.run(until=10_000_000.0)
    assert check_network(net) == []


def test_client_die_traces_cancelled_for_open_requests():
    """Every REQUEST the dead incarnation left open must reach a
    terminal span status via a ``kernel.cancelled`` record."""
    net = Network(seed=43)
    server_node = net.add_node()

    class NeverAccept(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            return
            yield  # pragma: no cover

    server_node.install_program(NeverAccept())

    class Requester(ClientProgram):
        def task(self, api):
            yield from api.b_signal(api.server_sig(0, PATTERN))
            yield from api.serve_forever()

    requester_node = net.add_node(program=Requester(), boot_at_us=50.0)
    trace = net.sim.trace
    delivered = lambda: trace.counters.get("kernel.delivered_state", 0) > 0
    assert net.sim.run_until(delivered, timeout=5_000_000.0)
    requester_node.kernel.client_die()
    net.run(until=10_000_000.0)

    spans = build_spans(trace.records)
    mine = [s for s in spans if s.requester_mid == requester_node.kernel.mid]
    assert mine, "requester issued no spans"
    assert all(s.status == "cancelled" for s in mine), [
        (s.tid, s.status) for s in mine
    ]
