"""Behavioural tests for CANCEL (§3.3.3) and its races."""

from repro.core import (
    AcceptStatus,
    Buffer,
    CancelStatus,
    ClientProgram,
    Network,
    RequestStatus,
)
from repro.core.patterns import make_well_known_pattern

from tests.conftest import make_pair

RUN_US = 20_000_000.0
PATTERN = make_well_known_pattern(0o660)


class HoldingServer(ClientProgram):
    """Records arrivals; accepts only when ``accept_after_arrivals`` seen
    (never, by default)."""

    def __init__(self, accept_delay_us=None):
        self.accept_delay_us = accept_delay_us
        self.arrivals = []
        self.accept_statuses = []

    def initialization(self, api, parent_mid):
        yield from api.advertise(PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            self.arrivals.append(event.asker)
            return
        yield  # pragma: no cover

    def task(self, api):
        if self.accept_delay_us is None:
            yield from api.serve_forever()
        yield api.compute(self.accept_delay_us)
        yield from api.poll(lambda: self.arrivals)
        status = yield from api.accept_signal(self.arrivals[0])
        self.accept_statuses.append(status)
        yield from api.serve_forever()


def test_cancel_delivered_request_succeeds(network):
    server = HoldingServer()

    def body(api, self):
        sig = yield from api.discover(PATTERN)
        tid = yield from api.signal(sig)
        # Give the request time to be delivered to the server handler.
        yield api.compute(50_000)
        status = yield from api.cancel(tid)
        return status

    make_pair(network, server, body)
    network.run(until=RUN_US)
    _, client = network.nodes[0].client, network.nodes[1].client
    assert client.program.result is CancelStatus.SUCCESS


def test_accept_after_cancel_returns_cancelled(network):
    server = HoldingServer(accept_delay_us=200_000)

    def body(api, self):
        sig = yield from api.discover(PATTERN)
        tid = yield from api.signal(sig)
        yield api.compute(50_000)
        status = yield from api.cancel(tid)
        return status

    _, client = make_pair(network, server, body)
    network.run(until=RUN_US)
    assert client.result is CancelStatus.SUCCESS
    assert server.accept_statuses == [AcceptStatus.CANCELLED]


def test_cancel_after_completion_fails(network):
    class FastAccept(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_signal()

    def body(api, self):
        sig = yield from api.discover(PATTERN)
        completion = yield from api.b_signal(sig)
        status = yield from api.cancel(completion.tid)
        return completion.status, status

    _, client = make_pair(network, FastAccept(), body)
    network.run(until=RUN_US)
    assert client.result == (RequestStatus.COMPLETED, CancelStatus.FAIL)


def test_cancel_before_transmission_succeeds(network):
    # Three requests saturate the connection; the third is still queued
    # when cancelled, so no packets about it ever hit the wire.
    server = HoldingServer()

    def body(api, self):
        sig = yield from api.discover(PATTERN)
        held = []
        for _ in range(2):
            held.append((yield from api.signal(sig)))
        tid3 = yield from api.signal(sig)
        status = yield from api.cancel(tid3)
        yield api.compute(100_000)
        arrivals = len(server.arrivals)
        # Drain: withdraw the two the server holds, so none stays open.
        for tid in held:
            yield from api.cancel(tid)
        return status, arrivals

    _, client = make_pair(network, server, body)
    network.run(until=RUN_US)
    status, arrivals = client.result
    assert status is CancelStatus.SUCCESS
    assert arrivals == 2  # the cancelled request was never delivered


def test_cancel_of_unknown_tid_fails(network):
    server = HoldingServer()

    def body(api, self):
        status = yield from api.cancel(424242)
        return status

    _, client = make_pair(network, server, body)
    network.run(until=RUN_US)
    assert client.result is CancelStatus.FAIL


def test_cancel_race_with_accept_fails_and_completes(network):
    # The server accepts promptly; the client cancels at nearly the same
    # time.  Whatever the interleaving, the outcomes must be consistent:
    # cancel FAIL + completion delivered, or cancel SUCCESS + no
    # completion.
    class PromptServer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_signal()

    completions = []

    class Racer(ClientProgram):
        def __init__(self):
            self.result = None

        def handler(self, api, event):
            if event.is_completion:
                completions.append(event.status)
            return
            yield  # pragma: no cover

        def task(self, api):
            sig = yield from api.discover(PATTERN)
            tid = yield from api.signal(sig)
            status = yield from api.cancel(tid)  # immediately
            self.result = status
            yield api.compute(200_000)
            yield from api.serve_forever()

    network.add_node(program=PromptServer())
    racer = Racer()
    network.add_node(program=racer, boot_at_us=50.0)
    network.run(until=RUN_US)
    if racer.result is CancelStatus.FAIL:
        assert completions == [RequestStatus.COMPLETED]
    else:
        assert racer.result is CancelStatus.SUCCESS
        assert completions == []


def test_double_cancel_second_succeeds(network):
    server = HoldingServer()

    def body(api, self):
        sig = yield from api.discover(PATTERN)
        tid = yield from api.signal(sig)
        yield api.compute(50_000)
        first = yield from api.cancel(tid)
        second = yield from api.cancel(tid)
        return first, second

    _, client = make_pair(network, server, body)
    network.run(until=RUN_US)
    assert client.result == (CancelStatus.SUCCESS, CancelStatus.SUCCESS)
