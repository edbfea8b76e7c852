"""Tests for links / virtual circuits and link moving (§4.2.4)."""

from repro.core import ClientProgram, Network
from repro.facilities.links import LinkRole, LinkService, LinkState

RUN_US = 120_000_000.0


class LinkProgram(ClientProgram):
    """A client with link machinery and a scripted task body."""

    def __init__(self, body=None):
        self.links = LinkService()
        self.body = body
        self.log = []

    def initialization(self, api, parent_mid):
        yield from self.links.install(api)

    def handler(self, api, event):
        consumed = yield from self.links.handle_arrival(api, event)
        if consumed:
            return

    def task(self, api):
        if self.body is not None:
            yield from self.body(api, self)
        yield from api.serve_forever()


def test_connect_and_send_both_ways():
    net = Network(seed=61)

    def passive_recv(api, self):
        # Wait for a link to appear, then echo one message back.
        yield from api.poll(lambda: self.links.ends)
        link_id = next(iter(self.links.ends))
        data, tag = yield from self.links.recv(api, link_id)
        self.log.append(("got", data, tag))
        yield from self.links.send(api, link_id, data.upper(), tag=2)

    def active_send(api, self):
        link = yield from self.links.connect(api, 0)
        yield from self.links.send(api, link, b"over the link", tag=1)
        data, tag = yield from self.links.recv(api, link)
        self.log.append(("reply", data, tag))

    passive = LinkProgram(passive_recv)
    active = LinkProgram(active_send)
    net.add_node(program=passive)
    net.add_node(program=active, boot_at_us=200.0)
    net.run(until=RUN_US)
    assert ("got", b"over the link", 1) in passive.log
    assert ("reply", b"OVER THE LINK", 2) in active.log


def test_connect_assigns_roles():
    net = Network(seed=62)
    passive = LinkProgram()
    state = {}

    def active_body(api, self):
        link = yield from self.links.connect(api, 0)
        state["active_role"] = self.links.ends[link].role
        yield from api.poll(lambda: passive.links.ends)
        passive_end = next(iter(passive.links.ends.values()))
        state["passive_role"] = passive_end.role

    active = LinkProgram(active_body)
    net.add_node(program=passive)
    net.add_node(program=active, boot_at_us=200.0)
    net.run(until=RUN_US)
    assert state["active_role"] is LinkRole.MASTER
    assert state["passive_role"] is LinkRole.SLAVE


def test_link_move_transparent_to_partner():
    # A(1) has a link to S(0) and a link to B(2); A moves its S-link end
    # to B.  S keeps sending on the same link id and the messages reach B,
    # which takes every one that A did not.
    net = Network(seed=63)

    stationary_sent = []

    def stationary_body(api, self):
        yield from api.poll(lambda: self.links.ends)
        link_id = next(iter(self.links.ends))
        for i in range(4):
            yield from self.links.send(api, link_id, f"m{i}".encode(), tag=1)
            stationary_sent.append(i)
            yield api.compute(30_000)

    received_at_b = []

    def b_body(api, self):
        # First end: the A-B link; second end: the moved S-link.
        yield from api.poll(lambda: len(self.links.ends) >= 2)
        moved = max(self.links.ends)
        while sum(e[0] == "a_got" for e in a.log) + len(received_at_b) < 4:
            data, tag = yield from self.links.recv(api, moved)
            received_at_b.append(data)

    def a_body(api, self):
        link_to_s = yield from self.links.connect(api, 0)
        link_to_b = yield from self.links.connect(api, 2)
        # Receive the first couple of messages at A.
        data, _tag = yield from self.links.recv(api, link_to_s)
        self.log.append(("a_got", data))
        # Now move the S-link end over to B.
        yield from self.links.move(api, link_to_s, link_to_b)
        self.log.append(("moved", True))

    stationary = LinkProgram(stationary_body)
    a = LinkProgram(a_body)
    b = LinkProgram(b_body)
    net.add_node(program=stationary)          # mid 0
    net.add_node(program=a, boot_at_us=200.0)  # mid 1
    net.add_node(program=b, boot_at_us=400.0)  # mid 2
    net.run(until=RUN_US)
    assert ("moved", True) in a.log
    assert len(received_at_b) >= 2
    # A received at least the first message before moving.
    assert any(entry[0] == "a_got" for entry in a.log)
    # All data originated at S, in order, no loss or duplication across A/B.
    a_msgs = [e[1] for e in a.log if e[0] == "a_got"]
    all_msgs = a_msgs + received_at_b
    assert all_msgs == [f"m{i}".encode() for i in range(4)]


def test_destroy_notifies_partner():
    net = Network(seed=64)
    state = {}

    def active_body(api, self):
        link = yield from self.links.connect(api, 0)
        yield from self.links.destroy(api, link)
        state["gone_locally"] = link not in self.links.ends

    passive = LinkProgram()
    active = LinkProgram(active_body)
    net.add_node(program=passive)
    net.add_node(program=active, boot_at_us=200.0)
    net.run(until=RUN_US)
    assert state["gone_locally"]
    passive_end = next(iter(passive.links.ends.values()))
    assert passive_end.state is LinkState.DESTROYED


def test_send_on_destroyed_link_raises():
    from repro.core.errors import SodaError

    net = Network(seed=65)
    outcome = {}

    def passive_body(api, self):
        yield from api.poll(lambda: self.links.ends)
        link_id = next(iter(self.links.ends))
        yield from api.poll(
            lambda: self.links.ends[link_id].state is LinkState.DESTROYED
        )
        try:
            yield from self.links.send(api, link_id, b"too late")
        except SodaError as exc:
            outcome["error"] = str(exc)

    def active_body(api, self):
        link = yield from self.links.connect(api, 0)
        yield from self.links.destroy(api, link)

    net.add_node(program=LinkProgram(passive_body))
    net.add_node(program=LinkProgram(active_body), boot_at_us=200.0)
    net.run(until=RUN_US)
    assert "destroyed" in outcome["error"]


def test_introduce_gives_partners_a_link():
    # C holds links to A and B; after INTRODUCE, A and B talk directly.
    net = Network(seed=66)

    a_received = []

    def a_body(api, self):
        # Wait until we hold a second link (the introduced one).
        yield from api.poll(lambda: len(self.links.ends) >= 2)
        introduced = max(self.links.ends)  # newest link id
        data, tag = yield from self.links.recv(api, introduced)
        a_received.append((data, tag))

    def b_body(api, self):
        yield from api.poll(lambda: len(self.links.ends) >= 2)
        introduced = max(self.links.ends)
        yield from self.links.send(api, introduced, b"direct hello", tag=3)

    def c_body(api, self):
        link_a = yield from self.links.connect(api, 0)
        link_b = yield from self.links.connect(api, 1)
        yield from self.links.introduce(api, link_a, link_b)
        self.log.append(("introduced", True))

    a = LinkProgram(a_body)
    b = LinkProgram(b_body)
    c = LinkProgram(c_body)
    net.add_node(program=a)                    # mid 0
    net.add_node(program=b, boot_at_us=100.0)  # mid 1
    net.add_node(program=c, boot_at_us=200.0)  # mid 2
    net.run(until=RUN_US)
    assert ("introduced", True) in c.log
    assert a_received == [(b"direct hello", 3)]
