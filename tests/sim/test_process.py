"""Unit tests for coroutine processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Process, ProcessKilled


def test_delay_yields_advance_time():
    sim = Simulator()
    marks = []

    def body():
        yield 10.0
        marks.append(sim.now)
        yield 5.0
        marks.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert marks == [10.0, 15.0]


def test_yield_none_continues_same_instant():
    sim = Simulator()
    marks = []

    def body():
        yield None
        marks.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert marks == [0.0]


def test_future_wait_receives_value():
    sim = Simulator()
    future = sim.new_future()
    got = []

    def body():
        value = yield future
        got.append(value)

    sim.spawn(body())
    sim.schedule(30.0, future.resolve, "payload")
    sim.run()
    assert got == ["payload"]


def test_future_failure_raises_in_generator():
    sim = Simulator()
    future = sim.new_future()
    caught = []

    def body():
        try:
            yield future
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(body())
    sim.schedule(1.0, future.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_process_return_value_resolves_done_future():
    sim = Simulator()

    def body():
        yield 1.0
        return 42

    proc = sim.spawn(body())
    sim.run()
    assert proc.state == Process.DONE
    assert proc.result == 42
    assert proc.done_future.value == 42


def test_kill_throws_process_killed():
    sim = Simulator()
    cleaned = []

    def body():
        try:
            yield 100.0
        except ProcessKilled:
            cleaned.append(True)
            raise

    proc = sim.spawn(body())
    sim.schedule(10.0, proc.kill)
    sim.run()
    assert proc.state == Process.KILLED
    assert cleaned == [True]


def test_kill_before_start_runs_nothing():
    sim = Simulator()
    ran = []

    def body():
        ran.append(True)
        yield 1.0

    proc = Process(sim, body())
    proc.kill()
    sim.run()
    assert not ran
    assert proc.state == Process.KILLED


def test_self_kill_abandons_continuation():
    sim = Simulator()
    after = []

    def body():
        yield 1.0
        proc.kill()
        after.append("this line runs (kill defers)")
        yield 1.0
        after.append("but the process never resumes")

    proc = Process(sim, body())
    proc.start()
    sim.run()
    assert after == ["this line runs (kill defers)"]
    assert proc.state == Process.KILLED


def test_pause_defers_delay_resumption():
    sim = Simulator()
    marks = []

    def body():
        yield 10.0
        marks.append(sim.now)

    proc = sim.spawn(body())
    sim.schedule(5.0, proc.pause)
    sim.schedule(50.0, proc.resume)
    sim.run()
    assert marks == [50.0]


def test_pause_defers_future_resolution():
    sim = Simulator()
    future = sim.new_future()
    marks = []

    def body():
        value = yield future
        marks.append((sim.now, value))

    proc = sim.spawn(body())
    proc.pause()
    sim.schedule(5.0, future.resolve, "x")
    sim.schedule(20.0, proc.resume)
    sim.run()
    assert marks == [(20.0, "x")]


def test_resume_without_pause_is_noop():
    sim = Simulator()

    def body():
        yield 1.0

    proc = sim.spawn(body())
    proc.resume()
    sim.run()
    assert proc.state == Process.DONE


def test_unsupported_yield_raises():
    sim = Simulator()

    def body():
        yield "nonsense"

    sim.spawn(body())
    with pytest.raises(TypeError, match="unsupported"):
        sim.run()


def test_double_start_rejected():
    sim = Simulator()

    def body():
        yield 1.0

    proc = sim.spawn(body())
    with pytest.raises(RuntimeError):
        proc.start()


def test_future_double_resolve_rejected():
    sim = Simulator()
    future = sim.new_future()
    future.resolve(1)
    with pytest.raises(RuntimeError):
        future.resolve(2)


def test_future_callback_after_resolution_fires_immediately():
    sim = Simulator()
    future = sim.new_future()
    future.resolve("done")
    seen = []
    future.add_callback(lambda f: seen.append(f.value))
    assert seen == ["done"]
