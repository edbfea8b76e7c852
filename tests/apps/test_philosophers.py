"""Tests for dining philosophers with deadlock detection (§4.4.3).

Every table has a ``meals_target``, so a run ends drained: the
detector (MID n+1) meets a sated philosopher and stops with no alarm
outstanding at the time server (MID n), and the trace judge finds no
open cell.  ``test_detector_stops_once_a_philosopher_is_sated`` asked,
while the detector armed its next alarm before the probe, that the
last alarm end ``cancelled``; the detector now arms after the probe,
so it asks that the time server hold no alarm and that none was
withdrawn.
"""

from repro.apps.philosophers import DeadlockDetector, Philosopher
from repro.core import Network
from repro.facilities.timeservice import TimeServer


def build_table(
    seed,
    n=5,
    think_us=2_000.0,
    eat_us=2_000.0,
    meals_target=3,
    detector_interval_ms=15,
):
    """Philosophers on MIDs 0..n-1; timeserver on n; detector on n+1.

    Philosopher i's left neighbor is (i - 1) mod n.
    """
    net = Network(seed=seed)
    philosophers = []
    for i in range(n):
        philosopher = Philosopher(
            left_mid=(i - 1) % n,
            think_us=think_us,
            eat_us=eat_us,
            meals_target=meals_target,
        )
        philosophers.append(philosopher)
        net.add_node(mid=i, program=philosopher, boot_at_us=i * 20.0)
    net.add_node(mid=n, program=TimeServer())
    detector = DeadlockDetector(list(range(n)), interval_ms=detector_interval_ms)
    net.add_node(mid=n + 1, program=detector, boot_at_us=500.0)
    return net, philosophers, detector


def everyone_ate(philosophers, target):
    return all(p.meals >= target for p in philosophers)


def run_to_stop(net, philosophers, detector, target, timeout):
    """Run until every philosopher ate ``target`` meals and the detector
    stopped."""
    return net.run_until(
        lambda: everyone_ate(philosophers, target) and detector.stopped,
        timeout=timeout,
    )


def test_all_philosophers_eat_with_staggered_thinking():
    net, philosophers, detector = build_table(
        111, think_us=5_000.0, eat_us=3_000.0, meals_target=3
    )
    done = run_to_stop(net, philosophers, detector, 3, timeout=600_000_000.0)
    assert done, [p.meals for p in philosophers]


def test_progress_under_heavy_contention():
    # Zero thinking time maximizes contention -- grab-left-then-right
    # with everyone synchronized is exactly the deadlock recipe; the
    # detector must keep the table live.
    net, philosophers, detector = build_table(
        112, think_us=0.0, eat_us=1_000.0, meals_target=4,
        detector_interval_ms=10,
    )
    done = run_to_stop(net, philosophers, detector, 4, timeout=900_000_000.0)
    assert done, [p.meals for p in philosophers]


def test_deadlock_actually_detected_and_broken():
    # Synchronized hungry philosophers: with identical think times they
    # all grab their left fork together, deadlocking repeatedly.
    net, philosophers, detector = build_table(
        113, think_us=1_000.0, eat_us=1_000.0, meals_target=5,
        detector_interval_ms=10,
    )
    done = run_to_stop(net, philosophers, detector, 5, timeout=900_000_000.0)
    assert done, [p.meals for p in philosophers]
    assert detector.probes >= 1
    # Under this much contention at least one deadlock must have formed
    # and been broken.
    assert detector.deadlocks_broken >= 1
    assert sum(p.give_backs for p in philosophers) == detector.deadlocks_broken


def test_three_philosophers_also_work():
    net, philosophers, detector = build_table(
        114, n=3, think_us=500.0, eat_us=500.0, meals_target=4,
        detector_interval_ms=10,
    )
    done = run_to_stop(net, philosophers, detector, 4, timeout=600_000_000.0)
    assert done, [p.meals for p in philosophers]


def test_fairness_no_philosopher_starves():
    net, philosophers, detector = build_table(
        115, think_us=200.0, eat_us=2_000.0, meals_target=6,
        detector_interval_ms=10,
    )
    done = run_to_stop(net, philosophers, detector, 6, timeout=1_500_000_000.0)
    assert done, [p.meals for p in philosophers]
    meals = [p.meals for p in philosophers]
    # All reached the target; spread stays bounded (fair victims).
    assert max(meals) - min(meals) <= 6


def test_detector_stops_once_a_philosopher_is_sated():
    net, philosophers, detector = build_table(
        113, think_us=1_000.0, eat_us=1_000.0, meals_target=5,
        detector_interval_ms=10,
    )
    assert run_to_stop(net, philosophers, detector, 5, timeout=900_000_000.0)
    assert detector.stopped
    assert detector.deadlocks_broken >= 1
    # The detector arms its next alarm only after a probe, so it stops
    # with none outstanding: the time server (MID 5) holds none of its
    # alarms, and none was ever withdrawn.
    assert net.node(5).client.program._pending == []
    alarms = [
        rec["state"]
        for rec in net.sim.trace.records
        if rec.category == "kernel.delivered_state"
        and rec["mid"] == 5 and rec["src"] == 6
    ]
    assert alarms[-1] == "done"
    assert "cancelled" not in alarms
