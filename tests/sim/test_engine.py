"""Unit tests for the simulator core."""

import math

import pytest

from repro.sim.engine import Simulator


def test_run_advances_clock_in_order():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, lambda: seen.append(sim.now))
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0, 10.0]


def test_run_until_time_stops_clock_at_until():
    sim = Simulator()
    sim.schedule(100.0, lambda: None)
    sim.schedule(900.0, lambda: None)
    processed = sim.run(until=500.0)
    assert processed == 1
    assert sim.now == 500.0
    # The remaining event still fires on the next run.
    assert sim.run() == 1
    assert sim.now == 900.0


def test_run_with_empty_queue_sets_now_to_until():
    sim = Simulator()
    sim.run(until=250.0)
    assert sim.now == 250.0


def test_schedule_into_past_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_at_into_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5.0, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(5.0, lambda: seen.append("second"))
        seen.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]


def test_max_events_guard_raises():
    sim = Simulator()

    def loop():
        sim.schedule(1.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(RuntimeError, match="max_events"):
        sim.run(max_events=100)


def test_max_events_limit_is_exact():
    # Exactly max_events events must complete without tripping the
    # guard; one more must raise *before* the excess event executes.
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule(float(i), fired.append, i)
    assert sim.run(max_events=100) == 100
    assert len(fired) == 100

    sim = Simulator()
    fired = []
    for i in range(101):
        sim.schedule(float(i), fired.append, i)
    with pytest.raises(RuntimeError, match="max_events"):
        sim.run(max_events=100)
    assert len(fired) == 100  # the 101st never ran


def test_run_until_livelock_guard():
    # Regression: run_until used to bypass the runaway guard entirely —
    # a livelocked protocol plus a never-true predicate spun forever.
    sim = Simulator()

    def loop():
        sim.schedule(1.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(RuntimeError, match="max_events"):
        sim.run_until(lambda: False, timeout=1e9, max_events=100)


def test_run_until_backwards_time_guard():
    # Regression: run_until used to skip the backwards-clock check.
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert sim.now == 10.0
    sim.queue.push(5.0, lambda: None)  # corrupt: behind the clock
    with pytest.raises(RuntimeError, match="backwards"):
        sim.run_until(lambda: False, timeout=100.0)


def test_run_until_predicate():
    sim = Simulator()
    state = {"done": False}
    sim.schedule(50.0, lambda: state.update(done=True))
    sim.schedule(500.0, lambda: None)
    assert sim.run_until(lambda: state["done"], timeout=1_000.0)
    assert sim.now == 50.0


def test_run_until_predicate_timeout():
    sim = Simulator()
    assert not sim.run_until(lambda: False, timeout=100.0)
    assert sim.now == 100.0


def test_run_until_advances_clock_when_queue_drains_early():
    # Regression: with the queue drained before the deadline, run_until
    # left `now` at the last event time instead of the deadline —
    # inconsistent with run(until=...), and a later mixed run() call
    # started from a stale clock.
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    assert not sim.run_until(lambda: False, timeout=500.0)
    assert sim.now == 500.0

    # Mixing run_until and run on one simulator stays consistent.
    sim.schedule(100.0, lambda: None)  # fires at t=600
    assert sim.run(until=1_000.0) == 1
    assert sim.now == 1_000.0
    assert not sim.run_until(lambda: False, timeout=250.0)
    assert sim.now == 1_250.0


def test_run_until_stops_at_predicate_not_deadline():
    sim = Simulator()
    state = {"done": False}
    sim.schedule(50.0, lambda: state.update(done=True))
    assert sim.run_until(lambda: state["done"], timeout=1_000.0)
    # Satisfied predicates stop the clock at the satisfying event.
    assert sim.now == 50.0


def test_determinism_same_seed_same_trace():
    def build(seed: int):
        sim = Simulator(seed=seed)
        values = []
        for i in range(20):
            delay = sim.rng.uniform("jitter", 0.0, 100.0)
            sim.schedule(delay, values.append, i)
        sim.run()
        return values

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


# -- idle time: quiet() and skip_limit() (DESIGN.md §11.1) ------------------


def test_quiet_means_nothing_else_is_due_now():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.quiet()))
    sim.schedule(5.0, lambda: seen.append(sim.quiet()))
    cancelled = sim.schedule(5.0, lambda: None)
    sim.schedule(6.0, lambda: None)
    cancelled.cancel()
    sim.run()
    # The first callback shares its instant with the second; the second
    # only with a cancelled event and a later one.
    assert seen == [False, True]


def test_skip_limit_stops_short_of_the_next_event_and_of_until():
    sim = Simulator()
    seen = []

    def periodic():
        seen.append(sim.skip_limit())
        sim.now = 30.0  # moving the clock moves neither bound
        seen.append(sim.skip_limit())

    sim.schedule(10.0, periodic)
    sim.schedule(40.0, lambda: seen.append(sim.skip_limit()))
    assert sim.run(until=45.0) == 2
    # Strictly before the event at 40: a tie is the event's to break.
    before_40 = math.nextafter(40.0, -math.inf)
    assert seen == [before_40, before_40, 45.0]
    assert sim.events_processed == 2


def test_skip_limit_may_be_until_but_not_past_it():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, lambda: seen.append(sim.skip_limit()))
    sim.schedule(50.0, lambda: None)
    sim.run(until=45.0)
    assert seen == [45.0]


def test_skip_limit_needs_a_run_with_an_until_and_no_watcher():
    sim = Simulator()
    seen = []

    def probe():
        seen.append(sim.skip_limit() > -math.inf)

    probe()  # no run in progress
    sim.schedule(1.0, probe)
    sim.run()  # no until: max_events must keep counting every pass
    sim.schedule(1.0, probe)
    sim.run_until(lambda: False, 10.0)  # the predicate sees every event
    sim.schedule(1.0, probe)
    sim.run(until=sim.now + 10.0)
    probe()  # the run is over
    assert seen == [False, False, False, True, False]
