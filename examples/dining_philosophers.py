#!/usr/bin/env python3
"""The paper's dining-philosophers solution (§4.4.3), live.

Five philosopher nodes (each owning its right fork), a timeserver, and
the deadlock-detector process.  Thinking times are deliberately
synchronized so the table deadlocks repeatedly; watch the detector probe
the ring, break each deadlock by asking a fair victim to give its left
fork back, and stop once a philosopher has eaten its fill.

Run:  python examples/dining_philosophers.py
"""

from repro.apps.philosophers import DeadlockDetector, Philosopher
from repro.core import Network
from repro.facilities.timeservice import TimeServer

N = 5
MEALS = 4


def main() -> None:
    net = Network(seed=13)
    philosophers = []
    for i in range(N):
        philosopher = Philosopher(
            left_mid=(i - 1) % N,
            think_us=1_000.0,   # everyone gets hungry together
            eat_us=1_500.0,
            meals_target=MEALS,
        )
        philosophers.append(philosopher)
        net.add_node(mid=i, program=philosopher, boot_at_us=i * 20.0)
    net.add_node(mid=N, program=TimeServer())
    detector = DeadlockDetector(list(range(N)), interval_ms=10)
    net.add_node(mid=N + 1, program=detector, boot_at_us=500.0)

    done = net.run_until(
        lambda: all(p.meals >= MEALS for p in philosophers) and detector.stopped,
        timeout=900_000_000.0,
    )
    print(f"finished: {done} at t={net.now/1000:.1f} ms\n")
    for i, p in enumerate(philosophers):
        print(
            f"philosopher {i}: ate {p.meals} times, "
            f"gave a fork back {p.give_backs} time(s)"
        )
    print(
        f"\ndetector: {detector.probes} probe rounds, "
        f"{detector.deadlocks_broken} deadlock(s) broken, "
        f"stopped: {detector.stopped}"
    )


if __name__ == "__main__":
    main()
