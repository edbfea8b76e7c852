"""The full §4.3.2 timeout idiom, end to end.

"One way to implement timeouts is to register a wakeup REQUEST with a
timeserver utility prior to initiating a REQUEST to a potentially slow
server...  When the delay has expired, the REQUEST is ACCEPTED, thus
notifying the requester that the alarm has expired.  The requester may
then CANCEL outstanding requests to other clients and attempt
alternative action."
"""

from repro.core import CancelStatus, ClientProgram, Network, RequestStatus
from repro.core.patterns import make_well_known_pattern
from repro.facilities.timeservice import ALARM_CLOCK, TimeServer, set_alarm

SLOW = make_well_known_pattern(0o550)
FAST = make_well_known_pattern(0o551)
RUN_US = 120_000_000.0


class SlowServer(ClientProgram):
    """Delivers the request to its handler but never accepts."""

    def initialization(self, api, parent_mid):
        yield from api.advertise(SLOW)


class FastServer(ClientProgram):
    def initialization(self, api, parent_mid):
        yield from api.advertise(FAST)

    def handler(self, api, event):
        if event.is_arrival:
            yield from api.accept_current_get(put=b"fallback answer")


class ImpatientClient(ClientProgram):
    """Tries the slow server with a 40 ms alarm; falls back to the fast
    replica when the alarm fires first."""

    def __init__(self):
        self.alarm_tid = None
        self.alarm_fired = False
        self.outcome = {}

    def handler(self, api, event):
        if event.is_completion and event.asker.tid == self.alarm_tid:
            self.alarm_fired = True
        return
        yield  # pragma: no cover

    def task(self, api):
        from repro.core.buffers import Buffer

        timeserver = yield from api.discover(ALARM_CLOCK)
        # Register the wakeup BEFORE the risky request (§4.3.2).
        self.alarm_tid = yield from set_alarm(api, timeserver, delay_ms=40)
        slow_tid = yield from api.get(api.server_sig(0, SLOW), get=Buffer(32))
        slow_future = api.watch_completion(slow_tid)
        # Wait for whichever happens first.
        yield from api.poll(lambda: self.alarm_fired or slow_future.resolved)
        if self.alarm_fired and not slow_future.resolved:
            status = yield from api.cancel(slow_tid)
            self.outcome["cancel"] = status
            buf = Buffer(32)
            completion = yield from api.b_get(api.server_sig(1, FAST), get=buf)
            self.outcome["fallback"] = (completion.status, buf.data)
        else:  # pragma: no cover - slow server never answers in this test
            self.outcome["unexpected"] = True
        yield from api.serve_forever()


def test_alarm_cancels_slow_request_and_falls_back():
    net = Network(seed=211)
    net.add_node(program=SlowServer())       # 0
    net.add_node(program=FastServer())       # 1
    net.add_node(program=TimeServer())       # 2
    client = ImpatientClient()
    net.add_node(program=client, boot_at_us=100.0)
    net.run(until=RUN_US)
    assert client.outcome.get("cancel") is CancelStatus.SUCCESS
    status, data = client.outcome["fallback"]
    assert status is RequestStatus.COMPLETED
    assert data == b"fallback answer"
    # The slow server's kernel was told — a later ACCEPT would fail —
    # and, the withdrawal being final, retired the delivery.
    assert net.sim.trace.select(
        "kernel.delivered_state", mid=0, state="cancelled"
    )
    assert net.nodes[0].kernel.delivered == {}


def test_alarm_loses_race_when_server_answers_in_time():
    net = Network(seed=212)

    class PromptServer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(SLOW)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_get(put=b"in time")

    net.add_node(program=PromptServer())     # 0
    net.add_node(program=FastServer())       # 1
    net.add_node(program=TimeServer())       # 2

    outcome = {}

    class Client(ClientProgram):
        def __init__(self):
            self.alarm_tid = None
            self.alarm_fired = False

        def handler(self, api, event):
            if event.is_completion and event.asker.tid == self.alarm_tid:
                self.alarm_fired = True
            return
            yield  # pragma: no cover

        def task(self, api):
            from repro.core.buffers import Buffer

            timeserver = yield from api.discover(ALARM_CLOCK)
            self.alarm_tid = yield from set_alarm(api, timeserver, delay_ms=500)
            buf = Buffer(32)
            tid = yield from api.get(api.server_sig(0, SLOW), get=buf)
            future = api.watch_completion(tid)
            yield from api.poll(lambda: self.alarm_fired or future.resolved)
            assert future.resolved and not self.alarm_fired
            completion = yield from api.wait_completion(tid, future)
            outcome["answer"] = (completion.status, buf.data)
            # Tidy up: cancelling the pending alarm should succeed.
            outcome["alarm_cancel"] = yield from api.cancel(self.alarm_tid)
            yield from api.serve_forever()

    net.add_node(program=Client(), boot_at_us=100.0)
    net.run(until=RUN_US)
    assert outcome["answer"] == (RequestStatus.COMPLETED, b"in time")
    assert outcome["alarm_cancel"] is CancelStatus.SUCCESS
