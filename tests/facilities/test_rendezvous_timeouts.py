"""Tests for CSP rendezvous (Bernstein, §4.2.5) and the timeserver (§4.3.2)."""

import pytest

from repro.core import ClientProgram, Network, RequestStatus
from repro.core.patterns import make_well_known_pattern
from repro.facilities.rendezvous import CspGuard, CspProcess
from repro.facilities.timeservice import ALARM_CLOCK, TimeServer, set_alarm, sleep_via

RUN_US = 120_000_000.0


def csp_name(i: int):
    return make_well_known_pattern(0o5400 + i)


class CspClient(ClientProgram):
    def __init__(self, mid: int, body):
        self.csp = CspProcess(csp_name(mid))
        self.body = body
        self.log = []

    def initialization(self, api, parent_mid):
        yield from self.csp.install(api)

    def handler(self, api, event):
        consumed = yield from self.csp.handle_arrival(api, event)
        if consumed:
            return

    def task(self, api):
        yield from self.body(api, self)
        yield from api.serve_forever()


def test_simple_output_to_waiting_input():
    net = Network(seed=71)

    def receiver(api, self):
        guard = CspGuard(kind="input", msg_type=7, capacity=16)
        idx = yield from self.csp.alternative(api, [guard])
        self.log.append((idx, guard.received))

    def sender(api, self):
        yield api.compute(50_000)
        guard = CspGuard(
            kind="output", msg_type=7,
            peer=api.server_sig(0, csp_name(0)), value=b"rendezvous!",
        )
        idx = yield from self.csp.alternative(api, [guard])
        self.log.append(idx)

    r = CspClient(0, receiver)
    s = CspClient(1, sender)
    net.add_node(program=r)
    net.add_node(program=s, boot_at_us=100.0)
    net.run(until=RUN_US)
    assert r.log == [(0, b"rendezvous!")]
    assert s.log == [0]


def test_type_mismatch_is_rejected_until_matching_sender():
    net = Network(seed=72)

    def receiver(api, self):
        guard = CspGuard(kind="input", msg_type=7, capacity=16)
        yield from self.csp.alternative(api, [guard])
        self.log.append(guard.received)

    def bad_sender(api, self):
        yield api.compute(30_000)
        guard = CspGuard(
            kind="output", msg_type=9,  # wrong type
            peer=api.server_sig(0, csp_name(0)), value=b"wrong",
        )
        idx = yield from self.csp.alternative(api, [guard])
        self.log.append(idx)

    def good_sender(api, self):
        yield api.compute(120_000)
        guard = CspGuard(
            kind="output", msg_type=7,
            peer=api.server_sig(0, csp_name(0)), value=b"right",
        )
        idx = yield from self.csp.alternative(api, [guard])
        self.log.append(idx)

    r = CspClient(0, receiver)
    bad = CspClient(1, bad_sender)
    good = CspClient(2, good_sender)
    net.add_node(program=r)
    net.add_node(program=bad, boot_at_us=100.0)
    net.add_node(program=good, boot_at_us=150.0)
    net.run(until=RUN_US)
    assert r.log == [b"right"]
    assert bad.log == [None]  # its only guard failed
    assert good.log == [0]


def test_symmetric_rendezvous_no_deadlock():
    # Both processes run an alternative command with BOTH an output guard
    # to the other and an input guard -- the classic deadlock danger.
    # Bernstein's MID ordering must let exactly one pairing happen.
    net = Network(seed=73)
    done = []

    def make_body(peer_mid):
        def body(api, self):
            guards = [
                CspGuard(
                    kind="output", msg_type=1,
                    peer=api.server_sig(peer_mid, csp_name(peer_mid)),
                    value=f"from {api.my_mid}".encode(),
                ),
                CspGuard(kind="input", msg_type=1, capacity=16),
            ]
            idx = yield from self.csp.alternative(api, guards)
            done.append((api.my_mid, idx, guards[1].received))

        return body

    p0 = CspClient(0, make_body(1))
    p1 = CspClient(1, make_body(0))
    net.add_node(program=p0)
    net.add_node(program=p1, boot_at_us=60.0)
    net.run(until=RUN_US)
    assert len(done) == 2
    outcomes = dict((mid, (idx, data)) for mid, idx, data in done)
    # Exactly one output succeeded and the other side took the input.
    kinds = sorted(idx for idx, _ in outcomes.values())
    assert kinds == [0, 1]
    receiver_mid = next(m for m, (idx, _) in outcomes.items() if idx == 1)
    sender_mid = 1 - receiver_mid
    assert outcomes[receiver_mid][1] == f"from {sender_mid}".encode()


def test_three_cycle_query_breaks():
    # P0 queries P1, P1 queries P2, P2 queries P0 -- the paper's cycle
    # scenario.  Each process loops on an alternative command with both
    # an output guard (to its successor) and an input guard, until every
    # process has taken part in two rendezvous.  The MID ordering must
    # prevent both deadlock (everyone delayed) and livelock (synchronized
    # abort/retry): every process finishes.  The run then goes on for a
    # second, so that a query still out when the loops stopped is
    # REJECTed by a peer no longer in an alternative.
    net = Network(seed=74)
    rendezvous_counts = {0: 0, 1: 0, 2: 0}

    def everyone_met():
        return all(count >= 2 for count in rendezvous_counts.values())

    def make_body(peer_mid):
        def body(api, self):
            while not everyone_met():
                guards = [
                    CspGuard(
                        kind="output", msg_type=1,
                        peer=api.server_sig(peer_mid, csp_name(peer_mid)),
                        value=bytes([api.my_mid]),
                    ),
                    CspGuard(kind="input", msg_type=1, capacity=4),
                ]
                idx = yield from self.csp.alternative(api, guards)
                if idx is not None:
                    rendezvous_counts[api.my_mid] += 1
                else:
                    yield api.compute(10_000)

        return body

    for mid, peer in ((0, 1), (1, 2), (2, 0)):
        net.add_node(
            mid=mid, program=CspClient(mid, make_body(peer)),
            boot_at_us=mid * 40.0,
        )
    done = net.run_until(everyone_met, timeout=RUN_US)
    # No livelock/deadlock: every process keeps rendezvousing.
    assert done, f"starvation: {rendezvous_counts}"
    net.run(until=net.now + 1_000_000.0)


def test_pure_guard_executes_without_communication():
    net = Network(seed=75)

    def body(api, self):
        guards = [
            CspGuard(kind="pure", condition=lambda: True),
            CspGuard(kind="input", msg_type=1),
        ]
        idx = yield from self.csp.alternative(api, guards)
        self.log.append(idx)

    p = CspClient(0, body)
    net.add_node(program=p)
    net.run(until=RUN_US)
    assert p.log == [0]


def test_all_false_conditions_fail_alternative():
    net = Network(seed=76)

    def body(api, self):
        guards = [CspGuard(kind="pure", condition=lambda: False)]
        idx = yield from self.csp.alternative(api, guards)
        self.log.append(idx)

    p = CspClient(0, body)
    net.add_node(program=p)
    net.run(until=RUN_US)
    assert p.log == [None]


# -- timeserver ---------------------------------------------------------------


def test_blocking_sleep_duration():
    net = Network(seed=77)
    net.add_node(program=TimeServer())
    outcome = {}

    class Sleeper(ClientProgram):
        def task(self, api):
            ts = yield from api.discover(ALARM_CLOCK)
            t0 = api.now
            completion = yield from sleep_via(api, ts, delay_ms=50)
            outcome["slept_ms"] = (api.now - t0) / 1000.0
            outcome["status"] = completion.status
            yield from api.serve_forever()

    net.add_node(program=Sleeper(), boot_at_us=100.0)
    net.run(until=RUN_US)
    assert outcome["status"] is RequestStatus.COMPLETED
    assert outcome["slept_ms"] == pytest.approx(50.0, abs=20.0)
    assert outcome["slept_ms"] >= 50.0


def test_alarm_completion_arrives_at_handler():
    net = Network(seed=78)
    server = TimeServer()
    net.add_node(program=server)
    fired = []

    class AlarmUser(ClientProgram):
        def handler(self, api, event):
            if event.is_completion and event.asker.tid == self.alarm_tid:
                fired.append(api.now)
            return
            yield  # pragma: no cover

        def task(self, api):
            ts = yield from api.discover(ALARM_CLOCK)
            self.alarm_tid = yield from set_alarm(api, ts, delay_ms=30)
            self.set_at = api.now
            yield from api.serve_forever()

    user = AlarmUser()
    net.add_node(program=user, boot_at_us=100.0)
    net.run(until=RUN_US)
    assert fired and fired[0] - user.set_at >= 30_000.0


def test_multiple_alarms_fire_in_expiry_order():
    net = Network(seed=79)
    server = TimeServer()
    net.add_node(program=server)
    fired = []

    class MultiAlarm(ClientProgram):
        def handler(self, api, event):
            if event.is_completion:
                fired.append((self.tids.index(event.asker.tid), api.now))
            return
            yield  # pragma: no cover

        def task(self, api):
            ts = yield from api.discover(ALARM_CLOCK)
            self.tids = []
            for delay in (80, 20, 50):
                tid = yield from set_alarm(api, ts, delay_ms=delay)
                self.tids.append(tid)
            yield from api.serve_forever()

    net.add_node(program=MultiAlarm(), boot_at_us=100.0)
    net.run(until=RUN_US)
    order = [idx for idx, _ in fired]
    assert order == [1, 2, 0]  # 20ms, 50ms, 80ms
    assert server.alarms_served == 3
