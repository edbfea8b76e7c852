"""Handler state machine tests (§3.3.4, §3.7.5)."""

from repro.core import (
    Buffer,
    ClientProgram,
    KernelConfig,
    Network,
    RequestStatus,
)
from repro.core.patterns import make_well_known_pattern

from tests.conftest import make_pair

PATTERN = make_well_known_pattern(0o640)
RUN_US = 30_000_000.0


def test_closed_handler_delays_delivery_until_open(network):
    arrivals = []

    class ClosedServer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)
            yield from api.close()

        def handler(self, api, event):
            if event.is_arrival:
                arrivals.append(api.now)
                yield from api.accept_current_signal()

        def task(self, api):
            yield api.compute(300_000)
            self.opened_at = api.now
            yield from api.open()
            yield from api.serve_forever()

    server = ClosedServer()

    def body(api, self):
        completion = yield from api.b_signal(api.server_sig(0, PATTERN))
        return api.now, completion.status

    _, client = make_pair(network, server, body)
    network.run(until=RUN_US)
    done_at, status = client.result
    assert status is RequestStatus.COMPLETED
    # The request could only be delivered after OPEN.
    assert arrivals and arrivals[0] >= server.opened_at


def test_close_within_handler_defers_until_endhandler(network):
    # CLOSE inside the handler takes effect at ENDHANDLER (§3.3.4): the
    # *current* invocation finishes normally, and subsequent requests are
    # then held out until the task OPENs again.
    order = []

    class CloseInHandler(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                order.append(("arrival", event.arg, api.now))
                yield from api.close()
                yield from api.accept_current_signal()

        def task(self, api):
            yield api.compute(400_000)
            yield from api.open()
            self.reopened_at = api.now
            yield from api.serve_forever()

    server = CloseInHandler()

    def body(api, self):
        first = yield from api.b_signal(api.server_sig(0, PATTERN), arg=1)
        second = yield from api.b_signal(api.server_sig(0, PATTERN), arg=2)
        return first.status, second.status

    _, client = make_pair(network, server, body)
    network.run(until=RUN_US)
    assert client.result == (RequestStatus.COMPLETED, RequestStatus.COMPLETED)
    assert [arg for _, arg, _ in order] == [1, 2]
    # The second arrival was only delivered after the task reopened.
    assert order[1][2] >= server.reopened_at


def test_completions_queue_while_handler_closed(network):
    # The requester closes its handler; the server accepts; the
    # completion interrupt must be queued and delivered on OPEN.
    completions = []

    class Acceptor(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_signal()

    class ClosedRequester(ClientProgram):
        def handler(self, api, event):
            if event.is_completion:
                completions.append(api.now)
            return
            yield  # pragma: no cover

        def task(self, api):
            yield from api.close()
            yield from api.signal(api.server_sig(0, PATTERN))
            yield api.compute(500_000)
            self.opened_at = api.now
            yield from api.open()
            yield from api.poll(lambda: completions)
            yield from api.serve_forever()

    network.add_node(program=Acceptor())
    requester = ClosedRequester()
    network.add_node(program=requester, boot_at_us=50.0)
    network.run(until=RUN_US)
    assert completions and completions[0] >= requester.opened_at


def test_completions_before_arrivals_at_endhandler(network):
    # §3.7.5: if C1 issues an ACCEPT followed by a REQUEST to C2, the
    # ACCEPT invokes C2's handler first.  We stage it with a long first
    # handler invocation on C2 so both interrupts pend, then check order.
    # C2 ACCEPTs that first arrival, C1's <1,0>, only after the stall.
    events_seen = []

    class C2(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            events_seen.append(event.reason.value)
            if event.is_arrival and event.arg == 0:
                # First arrival: issue a GET to C1 then stall so that
                # C1's ACCEPT-completion and C1's REQUEST both pend.
                yield from api.get(api.server_sig(1, PATTERN), get=4)
                yield api.compute(120_000)
                yield from api.accept_current_signal()
            elif event.is_arrival:
                yield from api.accept_current_signal()

    class C1(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                # ACCEPT then REQUEST, back to back (§3.7.5's scenario).
                yield from api.accept_current_get(put=b"data")
                yield from api.signal(api.server_sig(0, PATTERN), arg=1)

        def task(self, api):
            yield api.compute(5_000)
            yield from api.signal(api.server_sig(0, PATTERN), arg=0)
            yield from api.serve_forever()

    network.add_node(program=C2())
    network.add_node(program=C1(), boot_at_us=50.0)
    network.run(until=RUN_US)
    # C2 saw: arrival(arg 0), then completion (the ACCEPT), then the
    # arrival of the follow-on REQUEST.
    assert events_seen[0] == "request_arrival"
    assert "request_complete" in events_seen
    complete_idx = events_seen.index("request_complete")
    later_arrivals = [
        i
        for i, r in enumerate(events_seen)
        if r == "request_arrival" and i > 0
    ]
    assert later_arrivals and all(i > complete_idx for i in later_arrivals)


def test_handler_can_issue_accept_within_handler(network):
    # "The client may execute any SODA primitive, including ACCEPT,
    # within the handler" -- exercised by every other test; here we check
    # a handler issuing an ACCEPT for a *different* pending request.
    pending = []
    accepted = []

    class TwoAtOnce(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if not event.is_arrival:
                return
            pending.append(event.asker)
            if len(pending) == 2:
                # Accept the FIRST request from inside the handler
                # invocation of the SECOND.
                status1 = yield from api.accept_signal(pending[0])
                status2 = yield from api.accept_current_signal()
                accepted.extend([status1, status2])

    def body(api, self):
        server = api.server_sig(0, PATTERN)
        yield from api.signal(server, arg=1)
        yield from api.signal(server, arg=2)
        yield from api.poll(lambda: len(accepted) == 2)
        return list(accepted)

    _, client = make_pair(network, TwoAtOnce(), body)
    network.run(until=RUN_US)
    assert [s.value for s in client.result] == ["success", "success"]


def test_blocking_request_inside_handler_via_detach(network):
    # The saved-PC trick (§4.1.1): a B_GET inside the handler ends the
    # invocation and continues at task level; the task proper stays
    # suspended until the continuation finishes.
    trace = []

    class Relay(ClientProgram):
        """Forwards a SIGNAL's arrival into a blocking GET upstream."""

        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival and event.pattern == PATTERN:
                asker = event.asker
                buf = Buffer(8)
                completion = yield from api.b_get(
                    api.server_sig(1, PATTERN), get=buf
                )
                trace.append(("relay_got", buf.data))
                yield from api.accept_signal(asker)

    class Upstream(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_get(put=b"upstream")

        def task(self, api):
            yield api.compute(5_000)
            completion = yield from api.b_signal(api.server_sig(0, PATTERN))
            trace.append(("signal_done", completion.status))
            yield from api.serve_forever()

    network.add_node(program=Relay())
    network.add_node(program=Upstream(), boot_at_us=50.0)
    network.run(until=RUN_US)
    assert ("relay_got", b"upstream") in trace
    assert ("signal_done", RequestStatus.COMPLETED) in trace


def test_pipelined_hold_expires_with_busy_nack():
    # A pipelined kernel holds one REQUEST in the input buffer; if the
    # handler stays busy past the hold time, the REQUEST is BUSY-NACKed
    # and retried -- and must still complete eventually.
    cfg = KernelConfig(pipelined=True)
    net = Network(seed=9, config=cfg)

    class SlowServer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                if event.arg == 0:
                    yield api.compute(cfg.timing.input_buffer_hold_us * 3)
                yield from api.accept_current_signal()

    def body(api, self):
        server = api.server_sig(0, PATTERN)
        first = yield from api.signal(server, arg=0)
        second = yield from api.b_signal(server, arg=1)
        return second.status

    _, client = make_pair(net, SlowServer(), body)
    net.run(until=RUN_US)
    assert client.result is RequestStatus.COMPLETED
    assert net.sim.trace.count("kernel.hold") >= 1
    assert net.sim.trace.count("kernel.busy_nack") >= 1
