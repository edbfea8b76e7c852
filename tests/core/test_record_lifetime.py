"""Retired records answer as the closed records did (DESIGN.md "Record
lifetime"; docs/PROTOCOL.md).

``kernel.requests`` and ``kernel.delivered`` hold live work only.  Each
test here closes a transaction, checks the record is gone, and then asks
the kernel the question a closed record used to answer: a stale ACCEPT
(§3.6.1), a PROBE (§3.6.2), a late or repeated CANCEL (§3.3.3), one more
REQUEST at MAXREQUESTS (§3.3.1).  The last group seeds a leaked probe
timer on a counters-only run and shows the two oracles that used to find
it by walking closed records still do: ``leaked_probe_timers()`` and
``check_liveness``'s kernel-state audit, which need no trace at all.
"""

import pytest

from repro.chaos import check_liveness
from repro.core import (
    AcceptStatus,
    CancelStatus,
    ClientProgram,
    KernelConfig,
    Network,
    RequestStatus,
)
from repro.core.connection import Connection
from repro.core.errors import TooManyRequestsError
from repro.core.kernel import DeliveredState, RequestState, SodaKernel
from repro.core.patterns import BROADCAST, make_well_known_pattern
from repro.core.signatures import RequesterSignature, ServerSignature
from repro.transport.packet import NackCode, Packet, PacketType

from tests.conftest import RecordingServer, ScriptedClient, make_pair

PATTERN = make_well_known_pattern(0o652)
RUN_US = 60_000_000.0


def fast_probe_config(**kwargs) -> KernelConfig:
    return KernelConfig(probe_interval_us=50_000.0, **kwargs)


class PromptServer(ClientProgram):
    """ACCEPTs every SIGNAL from its handler."""

    def initialization(self, api, parent_mid):
        yield from api.advertise(PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            yield from api.accept_current_signal()


class Holder(RecordingServer):
    """Records arrivals, never ACCEPTs (tests ACCEPT through the kernel)."""

    def __init__(self):
        super().__init__(pattern=PATTERN)

    @property
    def askers(self):
        return [e.asker for e in self.events if e.is_arrival]


def spy_on(node, ptype, pick):
    """Collect ``pick(packet)`` for every ``ptype`` packet ``node`` receives."""
    seen = []
    original = node.kernel._process_packet

    def spy(src, packet, arrival_backlog_us=0.0, fid=None):
        if packet.ptype is ptype:
            seen.append(pick(packet))
        original(src, packet, arrival_backlog_us, fid)

    node.kernel._process_packet = spy
    return seen


def signal_once(api, self):
    sig = yield from api.discover(PATTERN)
    completion = yield from api.b_signal(sig)
    return completion.tid, completion.status


# ---------------------------------------------------------------------------
# Stale ACCEPTs (§3.6.1): both sides of the tid watermark.


def forge_accept(net, server_node, tid):
    # A second of silence expires the requester's Delta-t record, so the
    # forged ACCEPT's sequence number is taken as new.
    net.run(until=net.sim.now + 1_000_000.0)
    server_node.kernel.nic.send(
        1, Packet(PacketType.ACCEPT, tid=tid, arg=0, seq=0), payload_bytes=0
    )
    net.run(until=net.sim.now + 100_000.0)


def test_stale_accept_for_a_retired_tid_is_nacked_cancelled(network):
    _, client = make_pair(network, PromptServer(), signal_once)
    network.run(until=1_000_000.0)
    tid, status = client.result
    assert status is RequestStatus.COMPLETED
    requester = network.nodes[1].kernel
    assert requester.requests == {}
    assert tid >= requester._tid_watermark

    nacks = spy_on(network.nodes[0], PacketType.NACK, lambda p: (p.nack_code, p.tid))
    forge_accept(network, network.nodes[0], tid)
    assert nacks == [(NackCode.CANCELLED, tid)]


def test_stale_accept_below_the_watermark_is_nacked_crashed(network):
    _, client = make_pair(network, PromptServer(), signal_once)
    network.run(until=1_000_000.0)
    tid, _ = client.result
    requester_node = network.nodes[1]
    requester_node.crash_client()
    requester_node.client = None
    requester_node.install_program(
        ClientProgram(), boot_at_us=network.sim.now + 1_000.0
    )
    network.run(until=network.sim.now + 10_000.0)
    assert tid < requester_node.kernel._tid_watermark

    nacks = spy_on(network.nodes[0], PacketType.NACK, lambda p: (p.nack_code, p.tid))
    forge_accept(network, network.nodes[0], tid)
    assert nacks == [(NackCode.CRASHED, tid)]


# ---------------------------------------------------------------------------
# PROBEs (§3.6.2): a DONE delivery vouches until its ACCEPT is settled.


def test_done_delivery_answers_probes_until_its_accept_is_settled():
    # The server ACCEPTs (dataless: DONE at once) but every ACCEPT frame
    # is lost.  While the ACCEPT is unacknowledged the delivery stays and
    # PROBEs are answered arg=1; once retransmission gives the requester
    # up (reply_dead) the delivery retires and the next PROBE gets arg=0.
    net = Network(seed=21, config=fast_probe_config())
    server = Holder()
    net.add_node(program=server, name="server")
    client = ScriptedClient(signal_once)
    net.add_node(program=client, name="client", boot_at_us=100.0)
    net.faults.drop_matching(
        lambda frame: getattr(frame.payload, "ptype", None) is PacketType.ACCEPT,
        count=10_000,
    )
    replies = spy_on(net.nodes[1], PacketType.PROBE_REPLY, lambda p: p.arg)
    kernel = net.nodes[0].kernel
    snapshots = []

    def accept_now():
        (sig,) = server.askers
        kernel.client_accept(sig, 0)
        net.sim.schedule(100_000.0, snapshot, sig)

    def snapshot(sig):
        delivered = kernel.delivered[sig]
        snapshots.append(
            (delivered.state, delivered.accept_acked, delivered.reply_dead,
             list(replies))
        )

    net.sim.schedule(200_000.0, accept_now)
    net.run(until=RUN_US)

    (during,) = snapshots
    assert during[:3] == (DeliveredState.DONE, False, False)
    assert during[3] and set(during[3]) == {1}
    assert replies[-1] == 0 and set(replies[:-1]) == {1}
    assert net.sim.trace.count("conn.peer_dead") == 1
    assert kernel.delivered == {} and kernel.pending_accepts == {}
    tid, status = client.result
    assert status is RequestStatus.CRASHED
    (report,) = net.sim.trace.select("kernel.crash_report", tid=tid)
    assert report["reason"] == "probe_denied"


def test_accept_on_a_connection_declared_dead_settles_the_delivery():
    # Both directions are cut just long enough for the server's own
    # REQUEST to the requester to exhaust and declare it dead; the server
    # then ACCEPTs the requester's REQUEST, which fails CRASHED at once.
    # The delivery must settle as a dead ACCEPT's does (reply_dead,
    # DONE, retired): after the heal the requester's next PROBE is
    # denied, where it used to be answered "alive" forever.
    probe_us = 2_000_000.0
    config = KernelConfig(probe_interval_us=probe_us)
    net = Network(seed=21, config=config)
    server = Holder()
    net.add_node(program=server, name="server")
    client = ScriptedClient(signal_once)
    net.add_node(program=client, name="client", boot_at_us=100.0)
    kernel, requester = net.nodes[0].kernel, net.nodes[1].kernel

    def cut(frame, receiver):
        return True

    accepted = []

    def cut_off():
        # Once the REQUEST is acknowledged, the requester only probes.
        if not any(
            record.state is RequestState.DELIVERED
            for record in requester.requests.values()
        ):
            net.sim.schedule(1_000.0, cut_off)
            return
        net.faults.add_drop_predicate(cut)
        kernel.client_request(ServerSignature(1, PATTERN), 0)
        net.sim.schedule(1_000.0, accept_once_dead)

    def accept_once_dead():
        if not kernel.connections[1].declared_dead:
            net.sim.schedule(1_000.0, accept_once_dead)
            return
        (sig,) = server.askers
        future = kernel.client_accept(sig, 0)
        future.add_callback(lambda f: accepted.append((net.sim.now, f.value)))
        net.faults.remove_drop_predicate(cut)

    net.sim.schedule(1_000.0, cut_off)
    net.run(until=RUN_US)

    ((accepted_at, status),) = accepted
    assert status is AcceptStatus.CRASHED
    assert kernel.delivered == {} and kernel.pending_accepts == {}
    tid, status = client.result
    assert status is RequestStatus.CRASHED
    (report,) = net.sim.trace.select("kernel.crash_report", mid=1, tid=tid)
    assert report["reason"] == "probe_denied"
    # The requester was never cut off long enough to give up by itself:
    # its first PROBE after the ACCEPT is the one denied.
    assert report.time - accepted_at <= (
        probe_us + config.retransmit.ack_timeout_us
    )


def test_delivery_retires_when_its_accept_is_acknowledged(network):
    _, client = make_pair(network, PromptServer(), signal_once)
    network.run(until=1_000_000.0)
    assert client.result[1] is RequestStatus.COMPLETED
    kernel = network.nodes[0].kernel
    assert kernel.delivered == {} and kernel.pending_accepts == {}
    # The whole life is in the trace: delivered -> accepted -> done.
    states = [
        r["state"]
        for r in network.sim.trace.select("kernel.delivered_state", mid=0)
    ]
    assert states == ["delivered", "accepted", "done"]


# ---------------------------------------------------------------------------
# CANCEL (§3.3.3) of a tid whose record has retired.


def test_cancel_of_a_retired_completed_tid_fails(network):
    def body(api, self):
        tid, _ = yield from signal_once(api, self)
        assert api.kernel.requests == {}
        return (yield from api.cancel(tid))

    _, client = make_pair(network, PromptServer(), body)
    network.run(until=RUN_US)
    assert client.error is None
    assert client.result is CancelStatus.FAIL


def test_repeated_cancel_of_a_retired_cancelled_tid_still_succeeds(network):
    def body(api, self):
        sig = yield from api.discover(PATTERN)
        tid = yield from api.signal(sig)
        yield api.compute(50_000)
        first = yield from api.cancel(tid)
        assert api.kernel.requests == {}
        second = yield from api.cancel(tid)
        return tid, first, second

    _, client = make_pair(network, Holder(), body)
    network.run(until=RUN_US)
    assert client.error is None
    tid, first, second = client.result
    assert (first, second) == (CancelStatus.SUCCESS, CancelStatus.SUCCESS)
    # The withdrawn tid is remembered as a tid, not as a record, and only
    # for this machine's signatures and this incarnation.
    kernel = network.nodes[1].kernel
    assert kernel._cancelled_tids == {tid}
    outcome = []
    forged = kernel.client_cancel(RequesterSignature(0, tid))
    forged.add_callback(lambda f: outcome.append(f.value))
    network.run(until=network.sim.now + 10_000.0)
    assert outcome == [CancelStatus.FAIL]
    network.nodes[1].crash_client()
    assert kernel._cancelled_tids == set()


def test_cancel_racing_a_discover_loses_when_the_window_closes(network):
    # No packet will ever settle this CANCEL (a DISCOVER has no server to
    # ask), so the close itself must: completion beats the CANCEL.
    def body(api, self):
        tid = yield from api.request(api.server_sig(BROADCAST, PATTERN), get=16)
        return (yield from api.cancel(tid))

    _, client = make_pair(network, PromptServer(), body)
    network.run(until=RUN_US)
    assert client.result is CancelStatus.FAIL
    assert network.nodes[1].kernel.requests == {}


# ---------------------------------------------------------------------------
# MAXREQUESTS (§3.3.1): the open count is the table's size.


def test_maxrequests_refuses_at_exactly_the_limit_and_readmits(network):
    server = Holder()
    limit = network.config.max_requests
    refused = []

    def body(api, self):
        sig = yield from api.discover(PATTERN)
        for _ in range(limit):
            yield from api.signal(sig)
        assert len(api.kernel.requests) == limit
        try:
            yield from api.signal(sig)
        except TooManyRequestsError:
            refused.append(len(api.kernel.requests))
        # The test ACCEPTs one; its slot frees and a REQUEST is admitted.
        yield from api.poll(lambda: len(api.kernel.requests) < limit)
        yield from api.signal(sig)
        return len(api.kernel.requests)

    _, client = make_pair(network, server, body)

    def accept_first():
        network.nodes[0].kernel.client_accept(server.askers[0], 0)

    network.sim.schedule(300_000.0, accept_first)
    network.run(until=RUN_US)
    assert client.error is None
    assert refused == [limit]
    assert client.result == limit


# ---------------------------------------------------------------------------
# The kernel-state oracles survive retirement and need no trace.


def slow_accept_net(seed):
    """One SIGNAL, ACCEPTed 120 ms after delivery: the requester has a
    probe timer armed when the ACCEPT closes the REQUEST."""
    net = Network(seed=seed, config=fast_probe_config(), keep_trace=False)
    server = Holder()
    net.add_node(program=server, name="server")
    client = ScriptedClient(signal_once)
    net.add_node(program=client, name="client", boot_at_us=100.0)

    def accept_when_delivered():
        if not server.askers:
            net.sim.schedule(1_000.0, accept_when_delivered)
            return
        net.sim.schedule(
            120_000.0, net.nodes[0].kernel.client_accept, server.askers[0], 0
        )

    net.sim.schedule(1_000.0, accept_when_delivered)
    return net, client


def test_healthy_close_leaves_no_probe_timer():
    net, client = slow_accept_net(31)
    assert net.run_until(lambda: client.result is not None, timeout=RUN_US)
    assert net.sim.trace.count("kernel.tx") > 0 and net.sim.trace.records == []
    assert net.nodes[1].kernel.leaked_probe_timers() == []
    # spans=[]: no record was kept, so only kernel state is judged.
    assert check_liveness(net, spans=[]) == []


@pytest.mark.no_auto_invariants
def test_timer_leaked_by_a_close_is_still_reported(monkeypatch):
    # Seeded bug: the close forgets the probe timers.  The record retires
    # all the same, so no table leads to the timer any more — the oracles
    # must find it in the scheduler.
    def forgetful_close(self, record, state, status=None):
        record.state = state
        record.completion_status = status
        del self.requests[record.tid]

    monkeypatch.setattr(SodaKernel, "_close_request", forgetful_close)
    net, client = slow_accept_net(31)
    assert net.run_until(lambda: client.result is not None, timeout=RUN_US)
    tid, status = client.result
    assert status is RequestStatus.COMPLETED
    kernel = net.nodes[1].kernel
    assert kernel.requests == {}
    assert kernel.leaked_probe_timers() == [(tid, "probe_timer")]

    problems = check_liveness(net, spans=[])
    assert problems == [
        f"node 1: closed request #{tid} leaked a live probe_timer"
    ]


def test_a_wedged_connection_is_reported_without_a_trace(monkeypatch):
    # Seeded bug: a transmission arms no retransmit timer.  With the
    # server's ACK lost, the REQUEST sits outstanding and nothing will
    # ever move it; kernel state shows it with no record kept.
    monkeypatch.setattr(Connection, "_arm_retransmit", lambda self, msg: None)
    net = Network(seed=31, config=fast_probe_config(), keep_trace=False)
    net.add_node(program=Holder(), name="server")
    client = ScriptedClient(signal_once)
    net.add_node(program=client, name="client", boot_at_us=100.0)
    net.faults.drop_matching(
        lambda frame: getattr(frame.payload, "ptype", None) is PacketType.ACK,
        count=10_000,
    )
    net.run(until=1_000_000.0)
    assert client.result is None
    assert check_liveness(net, spans=[]) == [
        "node 1: connection to 0 wedged — outstanding 'request' with no "
        "armed timer"
    ]


def test_a_closed_record_cannot_be_probed_again(network, monkeypatch):
    closed = []
    original = SodaKernel._close_request

    def capture(self, record, state, status=None):
        closed.append(record)
        original(self, record, state, status)

    monkeypatch.setattr(SodaKernel, "_close_request", capture)
    make_pair(network, PromptServer(), signal_once)
    network.run(until=1_000_000.0)
    assert [r.is_discover for r in closed] == [True, False]
    kernel = network.nodes[1].kernel
    kernel._schedule_probe(closed[-1])
    assert closed[-1].probe_timer is None
    assert kernel.leaked_probe_timers() == []
