"""SODAL API behaviour tests (§4.1)."""

import pytest

from repro.core import Buffer, ClientProgram, Network, RequestStatus
from repro.core.errors import NotInHandlerError
from repro.core.patterns import is_unique_id, make_well_known_pattern
from repro.sodal.api import _coerce_get, _coerce_put

from tests.conftest import ECHO_PATTERN, EchoServer, ScriptedClient, make_pair

RUN_US = 30_000_000.0
PATTERN = make_well_known_pattern(0o610)


def test_coerce_put_accepts_many_types():
    assert _coerce_put(None) == b""
    assert _coerce_put(b"abc") == b"abc"
    assert _coerce_put("héllo") == "héllo".encode("utf-8")
    assert _coerce_put(bytearray(b"xy")) == b"xy"
    assert _coerce_put(Buffer.from_bytes(b"zz")) == b"zz"


def test_coerce_get_accepts_int_and_buffer():
    assert _coerce_get(None).capacity == 0
    assert _coerce_get(16).capacity == 16
    buf = Buffer(4)
    assert _coerce_get(buf) is buf


def test_getuniqueid_returns_unique_patterns(network):
    ids = []

    def body(api, self):
        for _ in range(5):
            pattern = yield from api.getuniqueid()
            ids.append(pattern)
        return ids

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    assert len(set(client.result)) == 5
    assert all(is_unique_id(p) for p in client.result)


def test_accept_current_outside_handler_raises(network):
    def body(api, self):
        try:
            yield from api.accept_current_signal()
        except NotInHandlerError:
            return "raised"
        return "no-error"

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    assert client.result == "raised"


def test_accept_current_on_completion_event_raises(network):
    outcome = {}

    class BadServer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_signal()

    class Confused(ClientProgram):
        def handler(self, api, event):
            if event.is_completion:
                try:
                    # ACCEPT_CURRENT on a completion is illegal.
                    yield from api.accept_current_signal()
                except NotInHandlerError:
                    outcome["raised"] = True

        def task(self, api):
            yield from api.signal(api.server_sig(0, PATTERN))
            yield from api.serve_forever()

    network.add_node(program=BadServer())
    network.add_node(program=Confused(), boot_at_us=50.0)
    network.run(until=RUN_US)
    assert outcome.get("raised")


def test_my_mid_matches_node(network):
    def body(api, self):
        return api.my_mid
        yield  # pragma: no cover

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    assert client.result == 1


def test_queue_helpers_charge_time(network):
    from repro.sodal import Queue

    def body(api, self):
        q = Queue(4)
        t0 = api.now
        yield from api.enqueue(q, "x")
        item = yield from api.dequeue(q)
        return item, api.now - t0

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    item, elapsed = client.result
    assert item == "x"
    assert elapsed == pytest.approx(2 * network.config.timing.queue_op_us)


def test_task_return_implies_die(network):
    class ShortLived(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def task(self, api):
            yield api.compute(1_000)
            # returning here must trigger the implicit Die

    node = network.add_node(program=ShortLived())
    network.run(until=RUN_US)
    assert node.kernel.client is None
    assert node.kernel.patterns.advertised() == []


def test_completion_object_fields(network):
    def body(api, self):
        server = yield from api.discover(ECHO_PATTERN)
        buf = Buffer(10)
        completion = yield from api.b_exchange(server, put=b"12345", get=buf)
        return completion

    _, client = make_pair(network, EchoServer(greeting=b"abcdefgh"), body)
    network.run(until=RUN_US)
    completion = client.result
    assert completion.completed and not completion.rejected
    assert completion.taken_put == 5
    assert completion.taken_get == 8
    assert completion.tid >= 0
    assert completion.status is RequestStatus.COMPLETED


def test_poll_helper_waits_for_predicate(network):
    def body(api, self):
        flag = {"set": False}
        started = api.now
        api.sim.schedule(5_000.0, lambda: flag.update(set=True))
        yield from api.poll(lambda: flag["set"])
        return api.now - started

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    # No handler runs, so the passes sleep 100, 200, 400, ... µs: the
    # first tick at or after the flag's 5 000 µs is 100 * (2**6 - 1).
    assert client.result == 6_300.0


class TaskAcceptor(ClientProgram):
    """Queues arrivals in its handler; its task ACCEPTs them with reply
    data, so each ACCEPT blocks until the requester acknowledges it."""

    def __init__(self):
        self.queue = []
        self.entered_while_accepting = 0
        self.accepted = 0

    def initialization(self, api, parent_mid):
        yield from api.advertise(PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            # An ACCEPT the kernel still holds is one the task waits in.
            self.entered_while_accepting += bool(api.kernel.pending_accepts)
            self.queue.append(event.asker)
        return
        yield  # pragma: no cover

    def task(self, api):
        while True:
            yield from api.poll(lambda: self.queue)
            yield from api.accept(self.queue.pop(0), put=b"reply")
            self.accepted += 1


def test_no_handler_runs_inside_a_blocking_accept():
    # While the task waits in ACCEPT no client code can run (§5.2.1):
    # arrivals meanwhile are refused BUSY and retried, never taken.
    net = Network(seed=8)
    server = TaskAcceptor()
    net.add_node(program=server, name="server")

    def body(api, self):
        sig = yield from api.discover(PATTERN)
        for _ in range(5):
            completion = yield from api.b_get(sig, get=8)
            assert completion.completed
        return True

    clients = [ScriptedClient(body) for _ in range(3)]
    for i, client in enumerate(clients):
        net.add_node(program=client, boot_at_us=100.0 + 700.0 * i)
    net.run(until=RUN_US)
    assert [client.result for client in clients] == [True] * 3
    assert server.accepted == 15
    assert server.entered_while_accepting == 0
    assert net.sim.trace.count("kernel.busy_nack") > 0
