"""Tests for the ENTRY/COMPLETION dispatcher (§4.1.4.1)."""

from repro.core import ClientProgram, Network, RequestStatus
from repro.core.patterns import make_well_known_pattern
from repro.sodal.dispatch import HandlerDispatcher

from tests.conftest import ECHO_PATTERN, EchoServer

PING = make_well_known_pattern(0o611)
PONG = make_well_known_pattern(0o612)
RUN_US = 30_000_000.0


class DispatchingServer(ClientProgram):
    """Two entries and a default, all via the dispatcher."""

    def __init__(self):
        self.cases = HandlerDispatcher()
        self.log = []

    def initialization(self, api, parent_mid):
        self.cases.on_entry(PING, self._ping)
        self.cases.on_entry(PONG, self._pong)
        self.cases.otherwise(self._other)
        for pattern in (PING, PONG, ECHO_PATTERN):
            yield from api.advertise(pattern)

    def _ping(self, api, event):
        self.log.append("ping")
        yield from api.accept_current_signal(arg=1)

    def _pong(self, api, event):
        self.log.append("pong")
        yield from api.accept_current_signal(arg=2)

    def _other(self, api, event):
        self.log.append("other")
        yield from api.accept_current_signal(arg=3)

    def handler(self, api, event):
        handled = yield from self.cases.dispatch(api, event)
        assert handled or not event.is_arrival


def test_entry_dispatch_by_pattern(network):
    server = DispatchingServer()
    network.add_node(program=server)
    outcome = {}

    class Client(ClientProgram):
        def task(self, api):
            args = []
            for pattern in (PONG, PING, ECHO_PATTERN):
                completion = yield from api.b_signal(api.server_sig(0, pattern))
                args.append(completion.arg)
            outcome["args"] = args
            yield from api.serve_forever()

    network.add_node(program=Client(), boot_at_us=100.0)
    network.run(until=RUN_US)
    assert outcome["args"] == [2, 1, 3]
    assert server.log == ["pong", "ping", "other"]
    assert server.cases.stats["entry_matched"] == 2
    assert server.cases.stats["entry_otherwise"] == 1
    assert server.cases.stats["unrouted"] == 0


def test_completion_dispatch_fires_once(network):
    fired = []

    class AsyncClient(ClientProgram):
        def __init__(self):
            self.cases = HandlerDispatcher()

        def handler(self, api, event):
            yield from self.cases.dispatch(api, event)

        def task(self, api):
            server = yield from api.discover(ECHO_PATTERN)
            tid = yield from api.signal(server)
            self.cases.on_completion(
                tid, lambda api, ev: fired.append(("specific", ev.status)) or None
            )
            tid2 = yield from api.signal(server)
            self.cases.on_any_completion(
                lambda api, ev: fired.append(("default", ev.asker.tid)) or None
            )
            yield from api.poll(lambda: len(fired) >= 2)
            assert self.cases.pending_completions == 0
            yield from api.serve_forever()

    network.add_node(program=EchoServer())
    network.add_node(program=AsyncClient(), boot_at_us=100.0)
    network.run(until=RUN_US)
    kinds = {k for k, _ in fired}
    assert kinds == {"specific", "default"}
    assert ("specific", RequestStatus.COMPLETED) in fired
    client = network.nodes[1].kernel.node.client.program
    assert client.cases.stats["completion_matched"] == 1
    assert client.cases.stats["completion_default"] == 1


def test_unrouted_events_return_false(network):
    results = []

    class Bare(ClientProgram):
        def __init__(self):
            self.cases = HandlerDispatcher()

        def handler(self, api, event):
            handled = yield from self.cases.dispatch(api, event)
            results.append(handled)
            if event.is_arrival:
                yield from api.reject()

        def initialization(self, api, parent_mid):
            yield from api.advertise(PING)

    network.add_node(program=Bare())

    class Client(ClientProgram):
        def task(self, api):
            yield from api.b_signal(api.server_sig(0, PING))
            yield from api.serve_forever()

    network.add_node(program=Client(), boot_at_us=100.0)
    network.run(until=RUN_US)
    assert results and results[0] is False


def test_cancel_completion_unregisters(network):
    class Client(ClientProgram):
        def __init__(self):
            self.cases = HandlerDispatcher()
            self.defaulted = []

        def handler(self, api, event):
            if event.is_completion:
                self.cases.on_any_completion(
                    lambda api, ev: self.defaulted.append(ev.asker.tid) or None
                )
            yield from self.cases.dispatch(api, event)

        def task(self, api):
            server = yield from api.discover(ECHO_PATTERN)
            tid = yield from api.signal(server)
            self.cases.on_completion(tid, lambda api, ev: None)
            self.cases.cancel_completion(tid)
            yield from api.poll(lambda: self.defaulted)
            yield from api.serve_forever()

    client = Client()
    network.add_node(program=EchoServer())
    network.add_node(program=client, boot_at_us=100.0)
    network.run(until=RUN_US)
    assert len(client.defaulted) == 1
