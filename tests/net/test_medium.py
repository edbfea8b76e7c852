"""Unit tests for the broadcast bus, NIC, frames, and fault injection."""

import pytest

from repro.net import BROADCAST_MID, BroadcastBus, FaultPlan, Frame, NetworkInterface
from repro.net.frame import FRAME_HEADER_BYTES
from repro.sim.engine import Simulator


def build_bus(n_nodes=3, **kwargs):
    sim = Simulator(seed=1)
    bus = BroadcastBus(sim, **kwargs)
    nics = [NetworkInterface(bus, mid) for mid in range(n_nodes)]
    inboxes = {nic.mid: [] for nic in nics}
    for nic in nics:
        nic.on_frame = (lambda m: lambda f: inboxes[m].append(f))(nic.mid)
    return sim, bus, nics, inboxes


def test_unicast_reaches_only_destination():
    sim, bus, nics, inboxes = build_bus()
    nics[0].send(2, "hello")
    sim.run()
    assert len(inboxes[2]) == 1
    assert inboxes[1] == []
    assert inboxes[0] == []


def test_broadcast_reaches_everyone_but_sender():
    sim, bus, nics, inboxes = build_bus()
    nics[1].send(BROADCAST_MID, "announce")
    sim.run()
    assert len(inboxes[0]) == 1
    assert len(inboxes[2]) == 1
    assert inboxes[1] == []


def test_unicast_to_absent_mid_vanishes():
    sim, bus, nics, inboxes = build_bus()
    nics[0].send(99, "ghost")
    sim.run()
    assert all(not v for v in inboxes.values())


def test_serialization_delay_matches_bandwidth():
    # 1 Mbit/s -> 8 us per byte.
    sim, bus, nics, inboxes = build_bus(propagation_us=0.0)
    nics[0].send(1, "x", payload_bytes=100)
    sim.run()
    expected = (FRAME_HEADER_BYTES + 100) * 8.0
    assert sim.now == pytest.approx(expected)


def test_propagation_delay_added():
    sim, bus, nics, inboxes = build_bus(propagation_us=50.0)
    nics[0].send(1, "x", payload_bytes=0)
    sim.run()
    assert sim.now == pytest.approx(FRAME_HEADER_BYTES * 8.0 + 50.0)


def test_bus_serializes_concurrent_sends():
    sim, bus, nics, inboxes = build_bus(propagation_us=0.0)
    times = []
    nics[2].on_frame = lambda f: times.append(sim.now)
    nics[0].send(2, "a", payload_bytes=0)
    nics[1].send(2, "b", payload_bytes=0)
    sim.run()
    per_frame = FRAME_HEADER_BYTES * 8.0
    assert times == [pytest.approx(per_frame), pytest.approx(2 * per_frame)]


def test_bus_counts_traffic():
    sim, bus, nics, _ = build_bus()
    nics[0].send(1, "x", payload_bytes=10)
    nics[0].send(1, "y", payload_bytes=20)
    sim.run()
    assert bus.frames_sent == 2
    assert bus.bytes_sent == 2 * FRAME_HEADER_BYTES + 30


def test_duplicate_mid_rejected():
    sim = Simulator()
    bus = BroadcastBus(sim)
    NetworkInterface(bus, 1)
    with pytest.raises(ValueError):
        NetworkInterface(bus, 1)


def test_negative_mid_rejected():
    sim = Simulator()
    bus = BroadcastBus(sim)
    with pytest.raises(ValueError):
        NetworkInterface(bus, -2)


def test_disabled_nic_discards():
    sim, bus, nics, inboxes = build_bus()
    nics[1].enabled = False
    nics[0].send(1, "x")
    sim.run()
    assert inboxes[1] == []


def test_nic_without_handler_discards():
    sim, bus, nics, inboxes = build_bus()
    nics[1].on_frame = None
    nics[0].send(1, "x")
    sim.run()  # must not raise


# -- fault injection ------------------------------------------------------------


def test_loss_probability_drops_frames():
    sim = Simulator(seed=3)
    bus = BroadcastBus(sim, faults=FaultPlan(loss_probability=1.0))
    a, b = NetworkInterface(bus, 0), NetworkInterface(bus, 1)
    got = []
    b.on_frame = got.append
    a.send(1, "x")
    sim.run()
    assert got == []
    assert bus.faults.frames_lost == 1


def test_corruption_counts_separately():
    sim = Simulator(seed=3)
    bus = BroadcastBus(sim, faults=FaultPlan(corruption_probability=1.0))
    a, b = NetworkInterface(bus, 0), NetworkInterface(bus, 1)
    b.on_frame = lambda f: None
    a.send(1, "x")
    sim.run()
    assert bus.faults.frames_corrupted == 1


def test_drop_next_scripted():
    sim = Simulator()
    bus = BroadcastBus(sim)
    a, b = NetworkInterface(bus, 0), NetworkInterface(bus, 1)
    got = []
    b.on_frame = got.append
    bus.faults.drop_next(1)
    a.send(1, "first")
    a.send(1, "second")
    sim.run()
    assert [f.payload for f in got] == ["second"]
    assert bus.faults.frames_scripted_drops == 1


def test_drop_predicate_severs_direction():
    sim = Simulator()
    bus = BroadcastBus(sim)
    a, b = NetworkInterface(bus, 0), NetworkInterface(bus, 1)
    got_a, got_b = [], []
    a.on_frame = got_a.append
    b.on_frame = got_b.append
    predicate = lambda frame, rx: frame.src == 0
    bus.faults.add_drop_predicate(predicate)
    a.send(1, "a->b")
    b.send(0, "b->a")
    sim.run()
    assert got_b == []
    assert len(got_a) == 1
    bus.faults.remove_drop_predicate(predicate)
    a.send(1, "again")
    sim.run()
    assert len(got_b) == 1


def test_drop_next_broadcast_burns_one_budget_unit():
    # Regression: one broadcast frame fans out to N-1 receivers but is ONE
    # scripted event — it must consume exactly one drop_next unit and count
    # once, and the next frame must get through everywhere.
    sim, bus, nics, inboxes = build_bus(n_nodes=4)
    bus.faults.drop_next(1)
    nics[0].send(BROADCAST_MID, "doomed")
    nics[0].send(BROADCAST_MID, "survivor")
    sim.run()
    for mid in (1, 2, 3):
        assert [f.payload for f in inboxes[mid]] == ["survivor"]
    assert bus.faults.frames_scripted_drops == 1
    assert not bus.faults.scripted_drops_pending


def test_drop_matching_targets_nth_match():
    # "Drop the 2nd frame from node 0" — skip=1 lets the first match pass.
    sim, bus, nics, inboxes = build_bus()
    bus.faults.drop_matching(lambda f: f.src == 0, count=1, skip=1)
    nics[0].send(1, "first")
    nics[0].send(1, "second")
    nics[0].send(1, "third")
    nics[2].send(1, "other")  # non-matching traffic is untouched
    sim.run()
    assert [f.payload for f in inboxes[1]] == ["first", "third", "other"]
    assert bus.faults.frames_scripted_drops == 1


def test_drop_matching_broadcast_counts_once():
    sim, bus, nics, inboxes = build_bus(n_nodes=3)
    bus.faults.drop_matching(lambda f: f.payload == "doomed")
    nics[0].send(BROADCAST_MID, "doomed")
    sim.run()
    assert inboxes[1] == [] and inboxes[2] == []
    assert bus.faults.frames_scripted_drops == 1


def test_drop_matching_validates_args():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.drop_matching(lambda f: True, count=0)
    with pytest.raises(ValueError):
        plan.drop_matching(lambda f: True, skip=-1)


def test_predicate_drops_counted_per_delivery():
    sim, bus, nics, inboxes = build_bus(n_nodes=3)
    predicate = lambda frame, rx: frame.src == 0
    bus.faults.add_drop_predicate(predicate)
    nics[0].send(BROADCAST_MID, "blocked")
    sim.run()
    assert inboxes[1] == [] and inboxes[2] == []
    # Partitions are receiver-specific: two deliveries were suppressed.
    assert bus.faults.deliveries_predicate_dropped == 2
    assert bus.faults.frames_scripted_drops == 0


def test_fault_plan_validates_probabilities():
    with pytest.raises(ValueError):
        FaultPlan(loss_probability=1.5)
    with pytest.raises(ValueError):
        FaultPlan(corruption_probability=-0.1)


def test_frame_properties():
    frame = Frame(1, BROADCAST_MID, "p", payload_bytes=10)
    assert frame.is_broadcast
    assert frame.wire_bytes == FRAME_HEADER_BYTES + 10
    assert "BCAST" in repr(frame)
    assert not Frame(1, 2, "p").is_broadcast


def test_frame_construction_and_equality():
    frame = Frame(1, 2, "p", 10)
    assert frame.payload_bytes == 10
    assert Frame(1, 2, "p").frame_id == frame.frame_id + 1
    named = Frame(src=1, dst=2, payload="p", payload_bytes=10, frame_id=77)
    assert named.frame_id == 77
    assert named == Frame(1, 2, "p", 10, frame_id=77)
    assert named != Frame(1, 2, "p", 10, frame_id=78)
    assert named != Frame(1, 2, "q", 10, frame_id=77)
    assert named != (1, 2, "p", 10, 77)
    with pytest.raises(TypeError):
        hash(named)
