"""Tests for the raw-engine benchmark (repro.bench.sim_bench).

Wall-clock rates vary per host, so assertions here cover the body's
*shape* and the determinism of per-scenario event counts; the committed
``BENCH_sim.json`` is judged by ``bench sim --check``
(tests/bench/test_registry.py).
"""

import json

from repro.bench.sim_bench import IDLE_EVENTS_PER_TICK_MAX, run_sim_bench

SCENARIOS = (
    "timer_churn",
    "message_storm",
    "chaos_replay",
    "idle_wait",
    "trace_overhead",
)


def test_body_shape_and_positive_rates():
    body = run_sim_bench(repeats=1, scale=0.01)
    assert set(body["scenarios"]) == set(SCENARIOS)
    for name in SCENARIOS[:-1]:
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
    assert isinstance(
        body["comparison"]["no_trace_faster_than_traced"], bool
    )
    json.dumps(body)  # JSON-serializable end to end


def test_event_counts_are_deterministic_across_runs():
    one = run_sim_bench(repeats=1, scale=0.01)
    two = run_sim_bench(repeats=1, scale=0.01)
    for name in SCENARIOS[:-1]:
        assert (
            one["scenarios"][name]["events"]
            == two["scenarios"][name]["events"]
        )
