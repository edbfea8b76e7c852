"""Edge-case tests for the uniprogrammed client processor."""

import pytest

from repro.core import Buffer, ClientProgram, Network, RequestStatus
from repro.core.patterns import make_well_known_pattern

from tests.conftest import ECHO_PATTERN, EchoServer

PATTERN = make_well_known_pattern(0o604)
RUN_US = 30_000_000.0


def test_handler_pauses_task(network):
    """While the handler runs, the task makes no progress."""
    timeline = []

    class Busy(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                timeline.append(("handler_start", api.now))
                yield api.compute(50_000)
                yield from api.accept_current_signal()
                timeline.append(("handler_end", api.now))

        def task(self, api):
            while True:
                timeline.append(("tick", api.now))
                yield api.compute(10_000)

    class Pinger(ClientProgram):
        def task(self, api):
            yield api.compute(30_000)
            yield from api.b_signal(api.server_sig(0, PATTERN))
            yield from api.serve_forever()

    network.add_node(program=Busy())
    network.add_node(program=Pinger(), boot_at_us=50.0)
    network.run(until=300_000.0)
    start = next(t for kind, t in timeline if kind == "handler_start")
    end = next(t for kind, t in timeline if kind == "handler_end")
    ticks_during = [
        t for kind, t in timeline if kind == "tick" and start < t < end
    ]
    assert ticks_during == []
    # And the task resumed afterwards.
    assert any(kind == "tick" and t > end for kind, t in timeline)


def test_blocking_request_in_initialization(network):
    """A B_GET inside Initialization (the consumer of §4.4.1 does a
    DISCOVER there) must work via the detach mechanism, and the task
    must only start after the continuation finishes."""
    order = []

    class DiscoveringClient(ClientProgram):
        def initialization(self, api, parent_mid):
            order.append("init_start")
            server = yield from api.discover(ECHO_PATTERN)
            self.server = server
            order.append("init_done")

        def task(self, api):
            order.append("task_start")
            completion = yield from api.b_signal(self.server)
            order.append(("signal", completion.status))
            yield from api.serve_forever()

    network.add_node(program=EchoServer())
    network.add_node(program=DiscoveringClient(), boot_at_us=100.0)
    network.run(until=RUN_US)
    assert order[0] == "init_start"
    assert order[1] == "init_done"
    assert order[2] == "task_start"
    assert order[3] == ("signal", RequestStatus.COMPLETED)


def test_arrivals_during_detached_continuation_are_serviced(network):
    """While a handler continuation (blocking request) is parked at task
    level, new arrivals still invoke the handler."""
    log = []

    class Relay(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if not event.is_arrival:
                return
            if event.arg == 1:
                log.append("slow_start")
                # Blocking request from the handler: detaches.
                completion = yield from api.b_signal(
                    api.server_sig(1, ECHO_PATTERN)
                )
                log.append(("slow_done", completion.status))
                yield from api.accept_signal(self.first_asker)
            else:
                log.append("fast")
                yield from api.accept_current_signal()

        def initialization_extra(self):
            pass

    relay = Relay()

    class Echo2(EchoServer):
        pass

    class Driver(ClientProgram):
        def task(self, api):
            # First signal triggers the slow (detaching) path...
            relay.first_asker = None
            tid = yield from api.signal(api.server_sig(0, PATTERN), arg=1)
            future = api.watch_completion(tid)
            yield api.compute(2_000)
            # ...and a second signal arrives while it is detached.
            fast = yield from api.b_signal(api.server_sig(0, PATTERN), arg=2)
            log.append(("fast_status", fast.status))
            yield from api.wait_completion(tid, future)
            yield from api.serve_forever()

    # Relay needs the asker of the slow request; stash it via handler.
    original_handler = Relay.handler

    def handler(self, api, event):
        if event.is_arrival and event.arg == 1:
            self.first_asker = event.asker
        result = yield from original_handler(self, api, event)

    Relay.handler = handler

    network.add_node(program=relay)
    network.add_node(program=Echo2(), boot_at_us=30.0)
    network.add_node(program=Driver(), boot_at_us=60.0)
    network.run(until=RUN_US)
    assert "slow_start" in log
    assert "fast" in log
    assert ("fast_status", RequestStatus.COMPLETED) in log
    # The fast arrival was handled before the slow continuation finished.
    assert log.index("fast") < log.index(("slow_done", RequestStatus.COMPLETED))


def test_kill_during_handler_stops_everything(network):
    progress = []

    class Victim(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PATTERN)

        def handler(self, api, event):
            if event.is_arrival:
                progress.append("handler_entered")
                yield api.compute(500_000)
                progress.append("handler_survived")  # must never happen

        def task(self, api):
            while True:
                yield api.compute(10_000)
                progress.append("tick")

    victim_node = network.add_node(program=Victim())

    class Pinger(ClientProgram):
        def task(self, api):
            yield from api.signal(api.server_sig(0, PATTERN))
            yield from api.serve_forever()

    network.add_node(program=Pinger(), boot_at_us=50.0)
    network.sim.schedule(100_000.0, victim_node.crash_client)
    network.run(until=1_000_000.0)
    assert "handler_entered" in progress
    assert "handler_survived" not in progress
    ticks_after = [p for p in progress if p == "tick"]
    last_len = len(progress)
    network.run(until=2_000_000.0)
    assert len(progress) == last_len  # nothing moved after the kill


def test_double_boot_rejected(network):
    node = network.add_node(program=EchoServer())
    network.run(until=10_000.0)
    with pytest.raises(RuntimeError):
        node.client.boot()


def test_repr_reflects_state(network):
    node = network.add_node(program=EchoServer())
    network.run(until=10_000.0)
    assert "task" in repr(node.client)
    node.crash_client()
    # ClientProcessor.kill leaves a dead processor behind.
    assert node.kernel.client is None


def test_a_client_died_before_its_boot_instant_never_boots():
    """DIE at 25 ms on a client booting at 50 ms, reboot at 600 ms: the
    dead incarnation must not boot beside the rebooted one (two
    incarnations on one kernel read as INV-HANDLER), and the rebooted
    client completes every round."""
    from repro.analysis.invariants import check_stream
    from repro.chaos.scenario import ClientDie, Reboot, Scenario, chaos_config
    from repro.workloads import (
        EchoClient,
        EchoServer,
        WorkloadRole,
        WorkloadSpec,
        place,
    )

    spec = WorkloadSpec(
        "late_client",
        seed=3,
        until_us=2_000_000.0,
        roles=(
            WorkloadRole("server", EchoServer),
            WorkloadRole(
                "client", lambda: EchoClient(rounds=3), boot_at_us=50_000.0
            ),
        ),
    )
    net = Network(seed=3, config=chaos_config())
    built = place(net, spec)
    first = net.nodes[1].client
    Scenario(
        "client_flap",
        (ClientDie(25_000.0, "client"), Reboot(600_000.0, "client")),
    ).run(built)

    violations = check_stream(net.sim.trace.records)
    assert violations == [], [v.format() for v in violations]
    assert first.dead and not first.booted
    rebooted = net.nodes[1].client
    assert rebooted is not first
    assert rebooted.program.completions == ["completed"] * 3
