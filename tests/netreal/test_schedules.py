"""Chaos schedule actions on a network that hosts one role.

A real run applies the named schedule in every node process, each on a
``BuiltWorkload`` holding its one role: network actions turn that
process's FaultPlan, which governs only its own sends, and role actions
are no-ops where the role lives in another process.
"""

import pytest

from repro.chaos.scenario import (
    ClientDie,
    DiskFault,
    NodeCrash,
    Partition,
    PowerLoss,
    Reboot,
    Scenario,
)
from repro.core.node import Network
from repro.net.frame import Frame
from repro.netreal import RealNetwork
from repro.workloads import REAL_WORKLOADS, place

SPEC = REAL_WORKLOADS["pingpong"]  # server = 0, ping1 = 1, ping2 = 2


def test_a_partition_drops_only_the_sends_that_cross_its_group():
    net = RealNetwork(seed=3)
    try:
        built = place(net, SPEC, mids=(1,))
        Partition(0.0, 10_000_000.0, isolate=("server",)).apply(built)
        net.run(until=1_000.0)  # the partition is armed at t=0
        rng = net.sim.rng.stream("bus.faults.1")
        verdicts = {
            (src, dst): net.faults.delivers(
                Frame(src, dst, None, frame_id=src * 10 + dst), dst, rng
            )
            for src in range(3)
            for dst in range(3)
            if src != dst
        }
    finally:
        net.close()
    assert verdicts == {
        (0, 1): False, (0, 2): False, (1, 0): False, (2, 0): False,
        (1, 2): True, (2, 1): True,
    }
    assert net.faults.deliveries_predicate_dropped == 4


@pytest.mark.parametrize(
    "action",
    [
        ClientDie(1_000.0, "ping2"),
        NodeCrash(1_000.0, "ping2"),
        Reboot(1_000.0, "ping2"),
        PowerLoss(1_000.0, ("ping2",), reboot_delay_us=1_000.0),
        DiskFault(1_000.0, "ping2", "fsync_drop"),
    ],
    ids=lambda action: type(action).__name__,
)
def test_a_role_action_is_a_no_op_where_its_role_is_not_hosted(action):
    net = Network(seed=3)
    built = place(net, SPEC, mids=(0, 1))
    Scenario("probe", (action,)).apply(built)
    assert built.placed("ping2") is None
    assert len(list(net.sim.pending_events())) == 2  # the two boots
    net.run(until=200_000.0)
    categories = {rec.category for rec in net.sim.trace.records}
    assert not categories & {"kernel.die", "kernel.crash"}
    assert all(not node.client.dead for node in net.nodes.values())
