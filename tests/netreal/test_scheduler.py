"""WallClockScheduler: the SchedulerBackend contract over real time."""

import pytest

from repro.core import ClientProgram
from repro.netreal import RealNetwork
from repro.netreal.scheduler import WallClockScheduler
from repro.sim.interface import SchedulerBackend, TimerHandle
from repro.sodal.api import IDLE_CAP_US


@pytest.fixture
def sched():
    scheduler = WallClockScheduler(seed=9)
    yield scheduler
    scheduler.close()


def test_satisfies_backend_protocols(sched):
    assert isinstance(sched, SchedulerBackend)
    assert isinstance(sched.schedule(0.0, lambda: None), TimerHandle)


def test_timer_fires_and_order_holds(sched):
    fired = []
    sched.schedule(4_000.0, fired.append, "late")
    sched.schedule(1_000.0, fired.append, "early")
    events = sched.run(until=20_000.0)
    assert fired == ["early", "late"]
    assert events == 2


def test_cancel_is_idempotent_and_fired_timers_stay_uncancelled(sched):
    fired = []
    doomed = sched.schedule(2_000.0, fired.append, "no")
    kept = sched.schedule(2_000.0, fired.append, "yes")
    doomed.cancel()
    doomed.cancel()
    sched.run(until=20_000.0)
    assert fired == ["yes"]
    assert doomed.cancelled
    # A spent timer reads as live, exactly like sim Events — the
    # degraded-run auditor keys off this distinction.
    assert not kept.cancelled


def test_negative_delay_rejected(sched):
    with pytest.raises(ValueError):
        sched.schedule(-1.0, lambda: None)


def test_past_instant_fires_instead_of_raising(sched):
    sched.start()
    fired = []
    sched.at(0.0, fired.append, True)  # epoch is already behind the clock
    sched.run(until=10_000.0)
    assert fired == [True]


def test_parked_timers_flush_at_start(sched):
    fired = []
    timer = sched.at(1_000.0, fired.append, "boot")
    cancelled = sched.at(1_000.0, fired.append, "never")
    cancelled.cancel()
    assert not sched.started
    assert sched.now == 0.0
    sched.run(until=15_000.0)  # implicit start
    assert fired == ["boot"]
    assert not timer.cancelled


def test_run_requires_horizon(sched):
    with pytest.raises(ValueError):
        sched.run()


def test_now_is_monotonic_and_run_advances_it(sched):
    sched.run(until=2_000.0)
    first = sched.now
    sched.run(until=4_000.0)
    assert sched.now >= first >= 2_000.0


def test_double_start_rejected(sched):
    sched.start()
    with pytest.raises(RuntimeError):
        sched.start()


def test_run_until_polls_predicate(sched):
    state = []
    sched.schedule(2_000.0, state.append, True)
    assert sched.run_until(lambda: bool(state), timeout=1_000_000.0)
    assert not sched.run_until(lambda: False, timeout=5_000.0)


def test_processes_and_futures_run_over_wall_clock(sched):
    """The unmodified sim Process/SimFuture machinery works unchanged."""
    log = []

    def helper(future):
        yield 1_000.0  # sleep a millisecond of real time
        future.resolve("payload")

    def main():
        future = sched.new_future()
        sched.spawn(helper(future), name="helper")
        value = yield future
        log.append(value)

    sched.spawn(main(), name="main")
    sched.run(until=100_000.0)
    assert log == ["payload"]


def test_rng_streams_are_seeded_and_named(sched):
    a = [sched.rng.stream("x").random() for _ in range(3)]
    other = WallClockScheduler(seed=9)
    try:
        assert [other.rng.stream("x").random() for _ in range(3)] == a
        assert other.rng.stream("y").random() != a[0]
    finally:
        other.close()


def test_idle_surface_never_skips_real_time(sched):
    sched.start()
    assert sched.quiet()
    before = sched.now
    assert not sched.skip_to(before + 1_000_000.0)
    assert sched.now < before + 1_000_000.0


def test_poll_over_wall_clock_wakes_within_a_cap_quantum():
    """``SodalApi.poll`` re-arms one ordinary timer per tick here; a flag
    set from outside the client is seen at the next tick."""
    woke = []

    class Waiter(ClientProgram):
        def task(self, api):
            flag = []
            # Past 100 + 200 + ... + 6 400 µs: the sleeps are at the cap.
            api.sim.schedule(40_000.0, lambda: flag.append(api.now))
            yield from api.poll(lambda: bool(flag))
            woke.append(api.now - flag[0])
            yield from api.serve_forever()

    net = RealNetwork(seed=3)
    try:
        node = net.add_node(program=Waiter())
        assert net.run_until(lambda: bool(woke), timeout=5_000_000.0)
        assert len(node.client._activity_waiters) == 0
    finally:
        net.close()
    # One quantum, plus whatever the host's event loop was late by.
    assert 0.0 <= woke[0] <= IDLE_CAP_US + 50_000.0
