"""Stress tests for link moving: repeated and contended moves (§4.2.4)."""

from repro.core import ClientProgram, Network
from repro.facilities.links import LinkRole, LinkService

RUN_US = 240_000_000.0


class LinkProgram(ClientProgram):
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


def test_link_moves_twice_and_still_delivers():
    # S holds a link whose far end starts at A, moves to B, then to C.
    # S keeps sending on the same link id the whole time, and C takes
    # every message that A and B did not.
    net = Network(seed=181)
    received = {"A": [], "B": [], "C": []}

    def s_body(api, self):
        yield from api.poll(lambda: self.links.ends)
        link_id = next(iter(self.links.ends))
        for i in range(6):
            yield from self.links.send(api, link_id, f"m{i}".encode())
            yield api.compute(40_000)

    def a_body(api, self):
        link_s = yield from self.links.connect(api, 0)   # to S
        link_b = yield from self.links.connect(api, 2)   # to B
        data, _ = yield from self.links.recv(api, link_s)
        received["A"].append(data)
        yield from self.links.move(api, link_s, link_b)
        self.log.append(("a_moved", True))

    def b_body(api, self):
        # First link: A-B.  Second: the moved S-link.
        yield from api.poll(lambda: len(self.links.ends) >= 2)
        moved = max(self.links.ends)
        link_c = yield from self.links.connect(api, 3)
        data, _ = yield from self.links.recv(api, moved)
        received["B"].append(data)
        yield from self.links.move(api, moved, link_c)
        self.log.append(("b_moved", True))

    def c_body(api, self):
        # First link: B-C.  Second: the twice-moved S-link.
        yield from api.poll(lambda: len(self.links.ends) >= 2)
        moved = max(self.links.ends)
        while sum(len(msgs) for msgs in received.values()) < 6:
            data, _ = yield from self.links.recv(api, moved)
            received["C"].append(data)

    s = LinkProgram(s_body)
    a = LinkProgram(a_body)
    b = LinkProgram(b_body)
    c = LinkProgram(c_body)
    net.add_node(program=s)                    # 0
    net.add_node(program=a, boot_at_us=100.0)  # 1
    net.add_node(program=b, boot_at_us=200.0)  # 2
    net.add_node(program=c, boot_at_us=300.0)  # 3
    net.run(until=RUN_US)
    assert ("a_moved", True) in a.log
    assert ("b_moved", True) in b.log
    # Messages were seen at A, then B, then C -- in order, none lost.
    all_seen = received["A"] + received["B"] + received["C"]
    assert all_seen == [f"m{i}".encode() for i in range(6)]
    assert len(received["C"]) >= 2


def test_both_ends_move_simultaneously():
    # The MASTER/SLAVE protocol exists precisely to serialize this: both
    # ends of one link try to move at once; one must first become master
    # (delayed/denied while the other moves), and both moves eventually
    # succeed without wedging the link.
    net = Network(seed=182)
    done = []

    def a_body(api, self):
        link_s = yield from self.links.connect(api, 1)   # the contended link (A master)
        link_c = yield from self.links.connect(api, 2)   # A's spare to C
        yield api.compute(5_000)
        yield from self.links.move(api, link_s, link_c)
        done.append("a")

    def b_body(api, self):
        # B holds the SLAVE end of the contended link plus a spare to D.
        yield from api.poll(lambda: self.links.ends)
        contended = next(iter(self.links.ends))
        link_d = yield from self.links.connect(api, 3)
        yield api.compute(5_000)
        yield from self.links.move(api, contended, link_d)
        done.append("b")

    a = LinkProgram(a_body)
    b = LinkProgram(b_body)
    c = LinkProgram()
    d = LinkProgram()
    net.add_node(program=a)                    # 0
    net.add_node(program=b, boot_at_us=50.0)   # 1
    net.add_node(program=c, boot_at_us=100.0)  # 2
    net.add_node(program=d, boot_at_us=150.0)  # 3
    net.run(until=RUN_US)
    assert sorted(done) == ["a", "b"]
    # After both moves, the link runs C <-> D: exactly one end at each,
    # pointing at each other.
    c_end = [e for e in c.links.ends.values()]
    d_end = [e for e in d.links.ends.values()]
    moved_c = [e for e in c_end if e.peer_mid == 3]
    moved_d = [e for e in d_end if e.peer_mid == 2]
    assert len(moved_c) == 1 and len(moved_d) == 1
    assert moved_c[0].peer_pattern == moved_d[0].local_pattern
    assert moved_d[0].peer_pattern == moved_c[0].local_pattern
