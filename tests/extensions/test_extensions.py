"""Tests for the §6.17 extension features."""

import pytest

from repro.core import Buffer, ClientProgram, KernelConfig, Network
from repro.core.errors import SodaError
from repro.core.patterns import make_well_known_pattern
from repro.extensions.bidding import (
    BiddingServerMixin,
    collect_bids,
    discover_least_loaded,
)
from repro.extensions.kernel_rmr import kernel_peek, kernel_poke
from repro.extensions.multicast import ProcessGroup, multicast_put
from repro.extensions.multipacket import BlockReceiverMixin, put_block

RUN_US = 300_000_000.0
GROUP = make_well_known_pattern(0o220)
SERVICE = make_well_known_pattern(0o221)
BLOCKS = make_well_known_pattern(0o222)


# -- multicast (§6.17.1) ----------------------------------------------------


class GroupMember(ClientProgram):
    def __init__(self):
        self.group = ProcessGroup(GROUP)
        self.got = []

    def initialization(self, api, parent_mid):
        yield from self.group.join(api)

    def handler(self, api, event):
        if event.is_arrival and event.pattern == GROUP:
            buf = Buffer(event.put_size)
            yield from api.accept_current_put(get=buf)
            self.got.append(buf.data)


def test_multicast_reaches_all_members():
    net = Network(seed=141)
    members = [GroupMember() for _ in range(4)]
    for member in members:
        net.add_node(program=member)
    outcome = {}

    class Caster(ClientProgram):
        def task(self, api):
            group = ProcessGroup(GROUP)
            result = yield from group.multicast(api, b"to everyone")
            outcome["result"] = result
            yield from api.serve_forever()

    net.add_node(program=Caster(), boot_at_us=500.0)
    net.run(until=RUN_US)
    assert outcome["result"].all_delivered
    assert outcome["result"].delivered_to == [0, 1, 2, 3]
    assert all(m.got == [b"to everyone"] for m in members)


def test_multicast_reports_failed_members():
    net = Network(seed=142)
    member = GroupMember()
    net.add_node(program=member)
    outcome = {}

    class Caster(ClientProgram):
        def task(self, api):
            # One live member plus one fabricated signature for a node
            # that never advertised the pattern.
            from repro.core.signatures import ServerSignature

            targets = [ServerSignature(0, GROUP), ServerSignature(2, GROUP)]
            result = yield from multicast_put(api, targets, b"data")
            outcome["result"] = result
            yield from api.serve_forever()

    net.add_node(name="deadbeat", mid=2)  # kernel alive, no client
    net.add_node(program=Caster(), boot_at_us=300.0, mid=3)
    net.run(until=RUN_US)
    assert outcome["result"].delivered_to == [0]
    assert outcome["result"].failed_members == [2]


def test_a_member_that_left_is_not_multicast_to():
    net = Network(seed=143)
    members = [GroupMember() for _ in range(2)]
    for member in members:
        net.add_node(program=member)

    class Leaver(GroupMember):
        def initialization(self, api, parent_mid):
            yield from self.group.join(api)
            yield from self.group.leave(api)

    leaver = Leaver()
    net.add_node(program=leaver)
    outcome = {}

    class Caster(ClientProgram):
        def task(self, api):
            result = yield from ProcessGroup(GROUP).multicast(api, b"stayers")
            outcome["result"] = result
            yield from api.serve_forever()

    net.add_node(program=Caster(), boot_at_us=500.0)
    net.run(until=RUN_US)
    assert outcome["result"].delivered_to == [0, 1]
    assert leaver.got == []
    assert net.nodes[2].kernel.patterns.advertised() == []


# -- kernel RMR (§6.17.2) -------------------------------------------------------


class RmrHost(ClientProgram):
    def __init__(self, size=256):
        self.size = size

    def initialization(self, api, parent_mid):
        self.memory = bytearray(self.size)
        api.kernel.client_register_rmr_memory(self.memory)
        return
        yield  # pragma: no cover


def test_kernel_rmr_poke_then_peek():
    net = Network(seed=143, config=KernelConfig(kernel_rmr=True))
    host = RmrHost()
    net.add_node(program=host)
    outcome = {}

    class Prober(ClientProgram):
        def task(self, api):
            yield from kernel_poke(api, 0, 8, b"\x01\x02\x03\x04")
            outcome["read"] = yield from kernel_peek(api, 0, 8, 4)
            yield from api.serve_forever()

    net.add_node(program=Prober(), boot_at_us=100.0)
    net.run(until=RUN_US)
    assert outcome["read"] == b"\x01\x02\x03\x04"
    assert bytes(host.memory[8:12]) == b"\x01\x02\x03\x04"


def test_kernel_rmr_disabled_by_default():
    net = Network(seed=144)
    node = net.add_node()
    with pytest.raises(SodaError):
        node.kernel.client_register_rmr_memory(bytearray(16))


def test_kernel_rmr_close_gates_access():
    net = Network(seed=145, config=KernelConfig(kernel_rmr=True))

    class ClosedHost(ClientProgram):
        def initialization(self, api, parent_mid):
            self.memory = bytearray(64)
            api.kernel.client_register_rmr_memory(self.memory)
            yield from api.close()

        def task(self, api):
            yield api.compute(120_000)
            yield from api.open()
            self.opened_at = api.now
            yield from api.serve_forever()

    host = ClosedHost()
    net.add_node(program=host)
    outcome = {}

    class Prober(ClientProgram):
        def task(self, api):
            yield from kernel_poke(api, 0, 0, b"late", retries=100)
            outcome["done_at"] = api.now
            yield from api.serve_forever()

    net.add_node(program=Prober(), boot_at_us=100.0)
    net.run(until=RUN_US)
    assert outcome["done_at"] >= host.opened_at
    assert bytes(host.memory[:4]) == b"late"


def test_kernel_rmr_faster_than_library_rmr():
    """§6.17.2's claim: kernel PEEK/POKE skips handler invocation and
    client overhead at the server -- measurably faster."""
    from repro.facilities.rmr import RMR_PATTERN, MemoryServer, peek

    # Library version.
    net1 = Network(seed=146)
    net1.add_node(program=MemoryServer(size=256))
    times = {}

    class LibProber(ClientProgram):
        def task(self, api):
            sig = api.server_sig(0, RMR_PATTERN)
            yield from peek(api, sig, 0, 64)  # warmup
            t0 = api.now
            for _ in range(5):
                yield from peek(api, sig, 0, 64)
            times["library"] = (api.now - t0) / 5
            yield from api.serve_forever()

    net1.add_node(program=LibProber(), boot_at_us=100.0)
    net1.run(until=RUN_US)

    # Kernel version.
    net2 = Network(seed=146, config=KernelConfig(kernel_rmr=True))
    net2.add_node(program=RmrHost())

    class KernelProber(ClientProgram):
        def task(self, api):
            yield from kernel_peek(api, 0, 0, 64)  # warmup
            t0 = api.now
            for _ in range(5):
                yield from kernel_peek(api, 0, 0, 64)
            times["kernel"] = (api.now - t0) / 5
            yield from api.serve_forever()

    net2.add_node(program=KernelProber(), boot_at_us=100.0)
    net2.run(until=RUN_US)
    assert times["kernel"] < times["library"]


# -- multipacket (§6.17.4) -------------------------------------------------------


class BlockSink(BlockReceiverMixin, ClientProgram):
    block_pattern = BLOCKS

    def __init__(self):
        self.blocks = []

    def on_block(self, sender_mid, block_id, data):
        self.blocks.append((sender_mid, block_id, data))


def test_block_larger_than_message_maximum():
    net = Network(seed=147)
    sink = BlockSink()
    net.add_node(program=sink)
    limit = net.config.max_message_bytes
    payload = bytes(i % 251 for i in range(3 * limit + 123))
    outcome = {}

    class Sender(ClientProgram):
        def task(self, api):
            chunks = yield from put_block(
                api, api.server_sig(0, BLOCKS), payload, block_id=9
            )
            outcome["chunks"] = chunks
            yield from api.serve_forever()

    net.add_node(program=Sender(), boot_at_us=100.0)
    net.run(until=RUN_US)
    assert outcome["chunks"] == 4
    assert sink.blocks == [(1, 9, payload)]


def test_two_interleaved_blocks_from_different_senders():
    net = Network(seed=148)
    sink = BlockSink()
    net.add_node(program=sink)
    payload_a = b"A" * 5000
    payload_b = b"B" * 7000

    class Sender(ClientProgram):
        def __init__(self, payload, block_id):
            self.payload = payload
            self.block_id = block_id

        def task(self, api):
            yield from put_block(
                api, api.server_sig(0, BLOCKS), self.payload,
                block_id=self.block_id, chunk_bytes=1024,
            )
            yield from api.serve_forever()

    net.add_node(program=Sender(payload_a, 1), boot_at_us=100.0)
    net.add_node(program=Sender(payload_b, 2), boot_at_us=130.0)
    net.run(until=RUN_US)
    got = {(mid, bid): data for mid, bid, data in sink.blocks}
    assert got == {(1, 1): payload_a, (2, 2): payload_b}


def test_empty_block_round_trips():
    net = Network(seed=149)
    sink = BlockSink()
    net.add_node(program=sink)

    class Sender(ClientProgram):
        def task(self, api):
            yield from put_block(api, api.server_sig(0, BLOCKS), b"", block_id=3)
            yield from api.serve_forever()

    net.add_node(program=Sender(), boot_at_us=100.0)
    net.run(until=RUN_US)
    assert sink.blocks == [(1, 3, b"")]


# -- bidding (§6.17.5) ---------------------------------------------------------------


class LoadedServer(BiddingServerMixin, ClientProgram):
    service_pattern = SERVICE

    def __init__(self, load):
        self.current_load = load


def test_discover_least_loaded_picks_minimum():
    net = Network(seed=150)
    for load in (7, 2, 9):
        net.add_node(program=LoadedServer(load))
    outcome = {}

    class Selector(ClientProgram):
        def task(self, api):
            best = yield from discover_least_loaded(api, SERVICE)
            bids = yield from collect_bids(api, SERVICE)
            outcome["best"] = best
            outcome["bids"] = bids
            yield from api.serve_forever()

    net.add_node(program=Selector(), boot_at_us=500.0)
    net.run(until=RUN_US)
    assert outcome["best"].mid == 1  # load 2
    assert outcome["bids"] == [(2, 1), (7, 0), (9, 2)]


def test_discover_least_loaded_empty():
    net = Network(seed=151)
    outcome = {"best": "unset"}

    class Selector(ClientProgram):
        def task(self, api):
            outcome["best"] = yield from discover_least_loaded(api, SERVICE)
            yield from api.serve_forever()

    net.add_node(program=Selector())
    net.run(until=RUN_US)
    assert outcome["best"] is None
