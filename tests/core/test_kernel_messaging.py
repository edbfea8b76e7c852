"""Behavioural tests for the message-passing primitives (§3.3, §3.7).

These run complete two/three-node networks and assert on what client
programs observe: statuses, transferred bytes, ordering, and limits.
"""

from repro.core import (
    AcceptStatus,
    Buffer,
    ClientProgram,
    KernelConfig,
    Network,
    RequestStatus,
)
from repro.core.errors import TooManyRequestsError
from repro.core.patterns import make_well_known_pattern
from repro.net.errors import FaultPlan

from tests.conftest import ECHO_PATTERN, EchoServer, ScriptedClient, make_pair

RUN_US = 10_000_000.0


def test_b_signal_success(network):
    def body(api, self):
        server = yield from api.discover(ECHO_PATTERN)
        completion = yield from api.b_signal(server)
        return completion.status

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    assert client.result is RequestStatus.COMPLETED


def test_b_put_delivers_data(network):
    payload = bytes(range(64))

    def body(api, self):
        server = yield from api.discover(ECHO_PATTERN)
        completion = yield from api.b_put(server, put=payload)
        return completion

    server, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    assert client.result.status is RequestStatus.COMPLETED
    assert server.received == [payload]
    assert client.result.taken_put == len(payload)


def test_b_get_retrieves_data(network):
    def body(api, self):
        server = yield from api.discover(ECHO_PATTERN)
        buf = Buffer(32)
        completion = yield from api.b_get(server, get=buf)
        return buf.data, completion.taken_get

    server = EchoServer(greeting=b"greetings!")
    _, client = make_pair(network, server, body)
    network.run(until=RUN_US)
    data, taken = client.result
    assert data == b"greetings!"
    assert taken == len(b"greetings!")


def test_b_exchange_both_directions(network):
    def body(api, self):
        server = yield from api.discover(ECHO_PATTERN)
        buf = Buffer(32)
        completion = yield from api.b_exchange(server, put=b"outbound", get=buf)
        return buf.data, completion

    server = EchoServer(greeting=b"inbound")
    _, client = make_pair(network, server, body)
    network.run(until=RUN_US)
    data, completion = client.result
    assert data == b"inbound"
    assert server.received == [b"outbound"]
    assert completion.taken_put == 8
    assert completion.taken_get == 7


def test_accept_argument_reaches_completion(network):
    PATTERN = make_well_known_pattern(0o777)

    class ArgServer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_signal(arg=event.arg * 2)

    def body(api, self):
        server = yield from api.discover(PATTERN)
        completion = yield from api.b_signal(server, arg=21)
        return completion.arg

    _, client = make_pair(network, ArgServer(), body)
    network.run(until=RUN_US)
    assert client.result == 42


def test_reject_maps_to_rejected_status(network):
    PATTERN = make_well_known_pattern(0o770)

    class Rejecting(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.reject()

    def body(api, self):
        server = yield from api.discover(PATTERN)
        completion = yield from api.b_put(server, put=b"data")
        return completion

    _, client = make_pair(network, Rejecting(), body)
    network.run(until=RUN_US)
    assert client.result.status is RequestStatus.REJECTED
    assert client.result.rejected


def test_accept_with_smaller_buffer_truncates(network):
    PATTERN = make_well_known_pattern(0o771)
    seen = {}

    class SmallBuffer(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                buf = Buffer(4)  # smaller than the requester's PUT
                yield from api.accept_current_put(get=buf)
                seen["data"] = buf.data

    def body(api, self):
        server = yield from api.discover(PATTERN)
        completion = yield from api.b_put(server, put=b"0123456789")
        return completion

    _, client = make_pair(network, SmallBuffer(), body)
    network.run(until=RUN_US)
    assert seen["data"] == b"0123"
    assert client.result.taken_put == 4


def test_unadvertised_pattern_fails_request(network):
    GHOST = make_well_known_pattern(0o666)

    def body(api, self):
        # Node 0 exists (EchoServer) but never advertised GHOST.
        completion = yield from api.b_signal(api.server_sig(0, GHOST))
        return completion.status

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    assert client.result is RequestStatus.UNADVERTISED


def test_request_to_nonexistent_machine_fails(network):
    def body(api, self):
        completion = yield from api.b_signal(api.server_sig(77, ECHO_PATTERN))
        return completion.status

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    # Never heard from MID 77 at all: reported as UNADVERTISED (§3.3.1).
    assert client.result is RequestStatus.UNADVERTISED


def test_requests_delivered_in_issue_order(network):
    PATTERN = make_well_known_pattern(0o772)
    arrivals = []

    class Recorder(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                arrivals.append(event.arg)
                yield from api.accept_current_signal()

    def body(api, self):
        server = api.server_sig(0, PATTERN)
        tids = []
        for i in range(3):
            tid = yield from api.signal(server, arg=i)
            tids.append(tid)
        # Wait for all three completions.
        done = []
        self.completions = done
        yield from api.poll(lambda: len(arrivals) >= 3)
        return tids

    _, client = make_pair(network, Recorder(), body)
    network.run(until=RUN_US)
    assert arrivals == [0, 1, 2]


def test_maxrequests_enforced(network):
    def body(api, self):
        server = api.server_sig(0, ECHO_PATTERN)
        # max_requests defaults to 3; the 4th must fail.
        tids = []
        for i in range(3):
            tids.append((yield from api.signal(server, arg=i)))
        try:
            yield from api.signal(server, arg=99)
        except TooManyRequestsError:
            result = "limited"
        else:
            result = "unlimited"
        # Drain: withdraw the three the server never ACCEPTs.
        for tid in tids:
            yield from api.cancel(tid)
        return result

    class NeverAccepts(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(ECHO_PATTERN)

    _, client = make_pair(network, NeverAccepts(), body)
    network.run(until=200_000.0)
    assert client.result == "limited"


def test_accept_of_unknown_request_is_cancelled(network):
    # A client that "guesses" a requester signature cannot complete it
    # (§3.3.2 rule 6): its own kernel never saw such a request.
    def body(api, self):
        status = yield from api.accept_signal(api.requester_sig(0, 12345))
        return status

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    assert client.result is AcceptStatus.CANCELLED


def test_double_accept_second_cancelled(network):
    PATTERN = make_well_known_pattern(0o773)
    statuses = []

    class DoubleAccept(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                first = yield from api.accept_current_signal()
                second = yield from api.accept_signal(event.asker)
                statuses.append((first, second))

    def body(api, self):
        server = yield from api.discover(PATTERN)
        completion = yield from api.b_signal(server)
        return completion.status

    _, client = make_pair(network, DoubleAccept(), body)
    network.run(until=RUN_US)
    assert client.result is RequestStatus.COMPLETED
    assert statuses == [(AcceptStatus.SUCCESS, AcceptStatus.CANCELLED)]


def test_nonblocking_completion_reaches_user_handler(network):
    PATTERN = make_well_known_pattern(0o774)
    completions = []

    class Accepting(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_signal(arg=7)

    class AsyncClient(ClientProgram):
        def handler(self, api, event):
            if event.is_completion:
                completions.append((event.asker.tid, event.arg, event.status))
            return
            yield

        def task(self, api):
            tid = yield from api.signal(api.server_sig(0, PATTERN))
            self.tid = tid
            yield from api.poll(lambda: completions)
            yield from api.serve_forever()

    network.add_node(program=Accepting())
    async_client = AsyncClient()
    network.add_node(program=async_client, boot_at_us=50.0)
    network.run(until=RUN_US)
    assert completions == [(async_client.tid, 7, RequestStatus.COMPLETED)]


def test_reliable_delivery_under_loss():
    net = Network(seed=11, faults=FaultPlan(loss_probability=0.15))
    payload = b"exactly-once-in-order"

    def body(api, self):
        server = yield from api.discover(ECHO_PATTERN)
        results = []
        for i in range(5):
            completion = yield from api.b_put(server, arg=i, put=payload + bytes([i]))
            results.append(completion.status)
        return results

    server, client = make_pair(net, EchoServer(), body)
    net.run(until=60_000_000.0)
    assert client.result == [RequestStatus.COMPLETED] * 5
    assert server.received == [payload + bytes([i]) for i in range(5)]


def test_large_message_rejected(network):
    def body(api, self):
        big = b"x" * (network.config.max_message_bytes + 1)
        try:
            yield from api.put(api.server_sig(0, ECHO_PATTERN), put=big)
        except Exception as exc:
            return type(exc).__name__
        return None

    _, client = make_pair(network, EchoServer(), body)
    network.run(until=RUN_US)
    assert client.result == "SodaError"
