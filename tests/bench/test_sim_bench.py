"""Tests for the raw-engine benchmark (repro.bench.sim_bench).

Wall-clock rates vary per host, so assertions here cover the body's
*shape* and the determinism of per-scenario event counts; the committed
``BENCH_sim.json`` is judged by ``bench sim --check``
(tests/bench/test_registry.py).
"""

import json

import pytest

from repro.bench.sim_bench import (
    ENGINE_SCENARIOS,
    EVENTS_PER_FRAME_MAX,
    IDLE_EVENTS_PER_TICK_MAX,
    RECORDS_PER_FRAME_MAX,
    run_sim_bench,
    verdicts,
)

SCENARIOS = ENGINE_SCENARIOS + ("trace_overhead", "frame_cost")


@pytest.fixture(scope="module")
def body():
    return run_sim_bench(repeats=1, scale=0.01)


def test_body_shape_and_positive_rates(body):
    assert set(body["scenarios"]) == set(SCENARIOS)
    for name in ENGINE_SCENARIOS:
        cell = body["scenarios"][name]
        assert cell["events"] > 0
        assert cell["events_per_sec"] > 0
        assert cell["elapsed_s"] >= 0.0
    # A count, the same on every host: an idle tick is (almost) free.
    per_tick = body["scenarios"]["idle_wait"]["events_per_tick"]
    assert 0 < per_tick <= IDLE_EVENTS_PER_TICK_MAX
    trace = body["scenarios"]["trace_overhead"]
    assert trace["traced"]["events"] == trace["no_trace"]["events"]
    assert trace["fast_mode_speedup"] > 0
    # The verdict is a count: retention costs Python calls on any host.
    assert trace["no_trace"]["calls"] < trace["traced"]["calls"]
    assert body["comparison"]["no_trace_fewer_calls_than_traced"] is True
    json.dumps(body)  # JSON-serializable end to end


def test_event_counts_are_deterministic_across_runs(body):
    again = run_sim_bench(repeats=1, scale=0.01)
    for name in ENGINE_SCENARIOS:
        assert (
            body["scenarios"][name]["events"]
            == again["scenarios"][name]["events"]
        )
    # frame_cost is all counts.  Only the raw call count may move, by
    # the few dozen calls a process's first KV cell spends on imports —
    # and with it calls_per_frame, which a few calls can tip across a
    # rounding boundary.
    first = dict(body["scenarios"]["frame_cost"])
    second = dict(again["scenarios"]["frame_cost"])
    assert abs(first.pop("calls") - second.pop("calls")) < 500
    first.pop("calls_per_frame")
    second.pop("calls_per_frame")
    assert first == second


def test_frame_cost_counts_and_verdicts(body):
    frame = body["scenarios"]["frame_cost"]
    assert frame["frames"] > 0 and frame["calls"] > frame["events"]
    assert frame["events_per_frame"] == round(
        frame["events"] / frame["frames"], 3
    )
    assert frame["records_per_frame"] == round(
        frame["records"] / frame["frames"], 3
    )
    assert frame["events_per_frame"] <= EVENTS_PER_FRAME_MAX
    assert frame["records_per_frame"] <= RECORDS_PER_FRAME_MAX
    # The verdicts bite on the two gated counts, and only on those.
    fat = {**body, "scenarios": {**body["scenarios"], "frame_cost": {
        **frame,
        "events_per_frame": EVENTS_PER_FRAME_MAX + 0.001,
        "records_per_frame": RECORDS_PER_FRAME_MAX + 0.001,
        "calls_per_frame": 10 * frame["calls_per_frame"],
    }}}
    added = [line for line in verdicts(fat) if line not in verdicts(body)]
    assert len(added) == 2 and all("frame_cost" in line for line in added)
