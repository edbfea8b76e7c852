"""Tests for Network/SodaNode wiring and kernel bookkeeping."""

import pytest

from repro.core import ClientProgram, KernelConfig, Network, RequestStatus
from repro.core.errors import SodaError
from repro.core.patterns import make_well_known_pattern

from tests.conftest import ECHO_PATTERN, EchoServer


def test_auto_mid_assignment(network):
    a = network.add_node()
    b = network.add_node()
    c = network.add_node(mid=7)
    d = network.add_node()
    assert (a.mid, b.mid, c.mid, d.mid) == (0, 1, 7, 8)


def test_duplicate_mid_rejected(network):
    network.add_node(mid=3)
    with pytest.raises(ValueError):
        network.add_node(mid=3)


def test_node_lookup_and_repr(network):
    node = network.add_node(name="alpha")
    assert network.node(node.mid) is node
    assert "alpha" in repr(node)


def test_install_second_program_while_alive_rejected(network):
    node = network.add_node(program=EchoServer())
    network.run(until=10_000.0)
    with pytest.raises(SodaError):
        node.install_program(EchoServer())
        network.run(until=20_000.0)


def test_bare_node_advertises_boot_pattern(network):
    from repro.core.boot import boot_pattern_for

    node = network.add_node(machine_type="special")
    assert node.kernel.boot_patterns == [boot_pattern_for("special")]
    assert node.kernel._boot_active


def test_network_now_tracks_sim(network):
    network.add_node(program=EchoServer())
    network.run(until=12_345.0)
    assert network.now == 12_345.0


def test_per_node_config_override():
    net = Network(seed=1, config=KernelConfig(pipelined=False))
    node = net.add_node(config=KernelConfig(pipelined=True))
    other = net.add_node()
    assert node.kernel.config.pipelined
    assert not other.kernel.config.pipelined


def test_shared_ledger_across_nodes(network):
    done = {}

    class Pinger(ClientProgram):
        def task(self, api):
            completion = yield from api.b_signal(api.server_sig(0, ECHO_PATTERN))
            done["status"] = completion.status
            yield from api.serve_forever()

    network.add_node(program=EchoServer())
    network.add_node(program=Pinger(), boot_at_us=50.0)
    network.run(until=10_000_000.0)
    assert done["status"] is RequestStatus.COMPLETED
    # Both kernels charged the one Network-level ledger.
    assert network.ledger.total() > 0
    assert network.nodes[0].kernel.ledger is network.ledger
    assert network.nodes[1].kernel.ledger is network.ledger


def test_kernel_work_serializes_on_busy_until(network):
    kernel = network.add_node().kernel
    timers_us = kernel.config.timing.connection_timer_us
    order = []
    kernel._kernel_work(100.0, 0.0, order.append, "first")
    kernel._kernel_work(50.0, 0.0, order.append, "second")
    network.run(until=1_000.0)
    assert order == ["first", "second"]
    # Second job starts only after the first's 100 us (and the
    # connection-timer bookkeeping every packet pays) completes.
    assert kernel._busy_until == 150.0 + 2 * timers_us


def test_kernel_work_charges_categories(network):
    kernel = network.add_node().kernel
    kernel._kernel_work(10.0, 5.0)
    assert network.ledger.get("protocol") == 10.0
    assert network.ledger.get("retransmit_timers") == 5.0
    assert (
        network.ledger.get("connection_timers")
        == kernel.config.timing.connection_timer_us
    )


def test_direct_index_kernel_integration():
    # With the §5.4 table, two patterns sharing a low byte: advertising
    # the second evicts the first, observable end to end.
    net = Network(seed=8, config=KernelConfig(direct_index_patterns=True))
    p1 = make_well_known_pattern(0x0101)
    p2 = make_well_known_pattern(0x0201)  # same low byte

    class TwoPatterns(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(p1)
            yield from api.advertise(p2)

        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_signal()

    statuses = {}

    class Client(ClientProgram):
        def task(self, api):
            first = yield from api.b_signal(api.server_sig(0, p1))
            second = yield from api.b_signal(api.server_sig(0, p2))
            statuses["p1"] = first.status
            statuses["p2"] = second.status
            yield from api.serve_forever()

    net.add_node(program=TwoPatterns())
    net.add_node(program=Client(), boot_at_us=100.0)
    net.run(until=10_000_000.0)
    assert statuses["p1"] is RequestStatus.UNADVERTISED  # evicted (§5.4)
    assert statuses["p2"] is RequestStatus.COMPLETED


def test_offline_kernel_ignores_everything(network):
    node = network.add_node(program=EchoServer())
    network.run(until=10_000.0)
    node.kernel.offline_until = network.now + 1_000_000.0
    outcome = {}

    class Client(ClientProgram):
        def task(self, api):
            completion = yield from api.b_signal(api.server_sig(0, ECHO_PATTERN))
            outcome["status"] = completion.status
            yield from api.serve_forever()

    network.add_node(program=Client())
    network.run(until=5_000_000.0)
    # Never heard from the offline node: UNADVERTISED (§3.3.1).
    assert outcome["status"] is RequestStatus.UNADVERTISED
