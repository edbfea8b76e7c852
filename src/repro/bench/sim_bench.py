"""Raw engine speed: the ``python -m repro bench sim`` microbenchmark.

Every other benchmark in the repo measures *simulated* time; this one
measures the simulator itself — wall-clock events per second through
``Simulator.run`` — so hot-path regressions show up PR over PR in the
committed ``BENCH_sim.json`` even when virtual-time results stay
byte-identical.

Six scenarios cover the engine's distinct cost centres:

* ``timer_churn`` — arm-and-cancel storms (the retransmission-timer
  pattern: almost every timer armed is cancelled before it fires),
  exercising the event queue's O(1) live counter and heap compaction;
* ``message_storm`` — long causal chains plus same-instant fanout
  bursts, exercising raw heap push/pop and ordering;
* ``chaos_replay`` — one full chaos cell (echo × sustained_loss), the
  end-to-end mix of kernel work, tracing, and timer churn a sweep cell
  really runs;
* ``idle_wait`` — one cell that is almost all waiting (queued × calm:
  eight SIGNALs, then a task polling an empty queue to the 60 s
  horizon), pricing an idle ``poll`` tick in events (DESIGN.md §11:
  2.0 per tick when every tick woke the generator);
* ``trace_overhead`` — one workload run traced and again in the
  tracer's counters-only fast mode (``keep_trace=False``), pricing
  per-event `TraceRecord` retention (the wall-clock speedup is
  reported; the verdict counts each side's Python calls);
* ``frame_cost`` — what one wire frame costs on a traced KV cell, in
  counts: scheduled events and trace records per frame (exact on every
  host, gated) and Python calls per frame (exact for one interpreter
  version, reported) — DESIGN.md §12.

Event *counts* per scenario are deterministic; only the wall-clock
rates vary run to run, so ``bench sim --check`` compares verdicts and
shape without pinning values (unlike the virtual-time ``BENCH_*``
files, which it compares byte-for-byte).
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.tables import failing, format_table
from repro.sim.engine import Simulator

__all__ = ["run_sim_bench"]

#: Workload priced by the ``trace_overhead`` scenario (streamed
#: non-blocking requests: trace-heavy but short enough to repeat).
TRACE_WORKLOAD = "stream"

#: The scenarios timed on their own, in report order.
ENGINE_SCENARIOS = (
    "timer_churn", "message_storm", "chaos_replay", "idle_wait"
)

#: The cell ``frame_cost`` counts on: ROADMAP's per-frame baseline cell.
FRAME_COST_CELL = ("kvstore_supervised", "primary_crash_load", 3)

#: Most events and trace records one wire frame may cost on it: 7.385
#: and 5.699 when the scenario was added, + 5 % (8.369 and 6.699 while
#: every frame had a finish event and a ``net.tx`` record; 7.353 and
#: 5.202 since the KV primary replicates only when it has work; 7.66
#: and 5.527 since the cheap heartbeat frames went: an idle round sends
#: no CONFIRM and the supervisor DISCOVERs each pattern once a poll;
#: 7.686 and 5.475 since a KV round sends only the phases with
#: something to carry; 7.703 and 5.435 since a commit is said once;
#: 7.447 and 5.228 since a calm primary runs one idle round per quiet
#: period).
EVENTS_PER_FRAME_MAX = 7.75
RECORDS_PER_FRAME_MAX = 5.99

#: Most events an idle ``poll`` tick may cost (``idle_wait`` verdict).
#: The cell's few hundred events are its eight transactions; the ticks
#: themselves should add next to nothing.
IDLE_EVENTS_PER_TICK_MAX = 0.1


def _measure(
    build_and_run: Callable[[], int], repeats: int
) -> Tuple[int, float]:
    """Best-of-``repeats`` wall clock for one scenario.

    ``build_and_run`` constructs a fresh simulator and returns the
    number of events it processed; the event count must not vary
    between repeats (asserted — a scenario whose work drifts between
    repeats is mis-measuring).
    """
    best = float("inf")
    events = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        processed = build_and_run()
        elapsed = time.perf_counter() - start
        if events is None:
            events = processed
        elif events != processed:
            raise RuntimeError(
                f"non-deterministic scenario: {events} != {processed}"
            )
        best = min(best, elapsed)
    assert events is not None
    return events, best


def _timer_churn(n_events: int) -> int:
    """Arm K timers per driver tick, cancel all but one, repeat.

    Mirrors the transport's retransmission pattern: the ACK almost
    always wins the race, so the armed timer dies cancelled.  With a
    lazy-only heap the dead entries pile up; this scenario regresses
    badly without compaction.
    """
    sim = Simulator(seed=1, keep_trace=False)
    fanout = 16

    def tick(remaining: int) -> None:
        if remaining <= 0:
            return
        armed = [
            sim.schedule(10_000.0 + i, _noop) for i in range(fanout)
        ]
        for event in armed[1:]:
            event.cancel()
        armed[0].cancel()
        sim.schedule(1.0, tick, remaining - 1)

    sim.schedule(0.0, tick, n_events)
    sim.run()
    return sim.events_processed


def _noop() -> None:
    return None


def _message_storm(n_events: int) -> int:
    """Causal chains with periodic same-instant fanout bursts."""
    sim = Simulator(seed=1, keep_trace=False)
    chains = 64
    state = {"left": n_events}

    def hop(chain: int) -> None:
        if state["left"] <= 0:
            return
        state["left"] -= 1
        if state["left"] % 97 == 0:
            # A burst at one instant: heap ordering under seq ties.
            for _ in range(8):
                if state["left"] > 0:
                    state["left"] -= 1
                    sim.schedule(5.0, _noop)
        sim.schedule(1.0 + (chain % 7), hop, chain)

    for chain in range(chains):
        sim.schedule(float(chain), hop, chain)
    sim.run()
    return sim.events_processed


def _replay_cells(
    workload: str,
    schedule: str,
    iterations: int,
    prepare: Optional[Callable] = None,
    seed: int = 1,
) -> int:
    """Real sweep cells (workload × schedule × seed), end to end.

    One cell is only a few milliseconds of wall clock, so a scenario
    replays it ``iterations`` times per measurement to rise above timer
    noise; every replay is an independent, identically-seeded network.
    ``prepare(built)`` may instrument a cell before it runs.
    """
    from repro.workloads import build_workload
    from repro.chaos.runner import chaos_config, make_schedule

    events = 0
    for _ in range(iterations):
        built = build_workload(workload, seed=seed, config=chaos_config())
        if prepare is not None:
            prepare(built)
        make_schedule(schedule, built.spec).run(built)
        events += built.net.sim.events_processed
    return events


def _idle_events_per_tick() -> float:
    """Events of one queued × calm cell per look its server's ``poll``
    takes at the predicate (counted apart from the timed replays: the
    counter is a Python call per tick)."""
    ticks = 0

    def count_ticks(built) -> None:
        api = built.net.nodes[built.mid_of("server")].client.api
        poll = api.poll

        def counting_poll(predicate: Callable[[], bool]):
            def looked() -> bool:
                nonlocal ticks
                ticks += 1
                return predicate()

            return poll(looked)

        api.poll = counting_poll

    events = _replay_cells("queued", "calm", 1, prepare=count_ticks)
    return round(events / ticks, 4)


def _profiled(build_and_run: Callable[[], int]) -> Tuple[int, int]:
    """``(build_and_run(), the Python calls it made)`` under cProfile,
    which changes no count but its own."""
    profiler = cProfile.Profile()
    profiler.enable()
    result = build_and_run()
    profiler.disable()
    return result, pstats.Stats(profiler).total_calls


def _frame_cost() -> Dict[str, object]:
    """Build and run :data:`FRAME_COST_CELL` once, traced, and divide
    its counts by the frames it put on the bus.  The call count is a
    fresh process's; its first KV cell spends some on imports that a
    second would not."""
    workload, schedule, seed = FRAME_COST_CELL
    cells: List = []
    events, calls = _profiled(
        lambda: _replay_cells(workload, schedule, 1, cells.append, seed)
    )
    net = cells[0].net
    frames = net.bus.frames_sent
    records = len(net.sim.trace.records)
    return {
        "cell": "/".join(map(str, FRAME_COST_CELL)),
        "frames": frames,
        "events": events,
        "records": records,
        "calls": calls,
        "events_per_frame": round(events / frames, 3),
        "records_per_frame": round(records / frames, 3),
        "calls_per_frame": round(calls / frames, 1),
    }


def _traced_workload(keep_trace: bool, iterations: int) -> int:
    from repro.workloads import build_workload

    events = 0
    for _ in range(iterations):
        built = build_workload(TRACE_WORKLOAD, keep_trace=keep_trace)
        built.net.run(until=built.spec.until_us)
        events += built.net.sim.events_processed
    return events


def _scenario_body(events: int, elapsed_s: float) -> Dict[str, object]:
    return {
        "events": events,
        "elapsed_s": round(elapsed_s, 6),
        "events_per_sec": round(events / elapsed_s) if elapsed_s else 0,
    }


def run_sim_bench(
    repeats: int = 3, scale: float = 1.0
) -> Dict[str, object]:
    """The ``BENCH_sim.json`` body.

    ``scale`` shrinks the per-scenario event budgets (tests run at
    ``scale=0.01`` so the whole bench finishes in well under a second).
    """
    scenarios: Dict[str, object] = {}
    budgets = {
        "timer_churn": max(50, int(20_000 * scale)),
        "message_storm": max(500, int(200_000 * scale)),
        "chaos_replay": max(1, int(25 * scale)),
        "idle_wait": max(1, int(25 * scale)),
        # The traced-vs-fast verdict needs enough wall clock to rise
        # above scheduler noise even at test scales; never below 10
        # workload iterations (~50 ms per side).
        "trace_overhead": max(10, int(25 * scale)),
    }
    runners: Dict[str, Callable[[], int]] = {
        "timer_churn": lambda: _timer_churn(budgets["timer_churn"]),
        "message_storm": lambda: _message_storm(
            budgets["message_storm"]
        ),
        "chaos_replay": lambda: _replay_cells(
            "echo", "sustained_loss", budgets["chaos_replay"]
        ),
        "idle_wait": lambda: _replay_cells(
            "queued", "calm", budgets["idle_wait"]
        ),
    }
    for name, runner in runners.items():
        events, elapsed = _measure(runner, repeats)
        scenarios[name] = _scenario_body(events, elapsed)
    scenarios["idle_wait"]["events_per_tick"] = _idle_events_per_tick()

    trace_iters = budgets["trace_overhead"]
    trace_repeats = max(3, repeats)
    traced_events, traced_s = _measure(
        lambda: _traced_workload(True, trace_iters), trace_repeats
    )
    fast_events, fast_s = _measure(
        lambda: _traced_workload(False, trace_iters), trace_repeats
    )
    traced = _scenario_body(traced_events, traced_s)
    fast = _scenario_body(fast_events, fast_s)
    for body, keep_trace in ((traced, True), (fast, False)):
        body["calls"] = _profiled(
            lambda: _traced_workload(keep_trace, trace_iters)
        )[1]
    speedup = (
        round(traced_s / fast_s, 3) if fast_s else float("inf")
    )
    scenarios["trace_overhead"] = {
        "workload": TRACE_WORKLOAD,
        "traced": traced,
        "no_trace": fast,
        "fast_mode_speedup": speedup,
    }
    scenarios["frame_cost"] = _frame_cost()
    return {
        "scenarios": scenarios,
        "comparison": {
            "no_trace_fewer_calls_than_traced": (
                fast["calls"] < traced["calls"]
            ),
        },
        "repeats": repeats,
    }


def run(ns) -> Dict[str, object]:
    return run_sim_bench(repeats=ns.repeats, scale=ns.scale)


def render(body) -> str:
    scenarios = body["scenarios"]
    rows = [
        (name, scenarios[name]["events"], scenarios[name]["events_per_sec"])
        for name in ENGINE_SCENARIOS
    ]
    trace = scenarios["trace_overhead"]
    for label, mode in (("traced", "traced"), ("no-trace", "no_trace")):
        rows.append(
            (
                f"{trace['workload']} ({label})",
                trace[mode]["events"],
                trace[mode]["events_per_sec"],
            )
        )
    fast_wins = body["comparison"]["no_trace_fewer_calls_than_traced"]
    return "\n".join(
        [
            format_table(
                ["scenario", "events", "events/sec"],
                rows,
                title="Engine hot path (wall clock; values vary per host)",
            ),
            "events per idle poll tick: "
            f"{scenarios['idle_wait']['events_per_tick']}",
            "per wire frame ({cell}): {events_per_frame} events, "
            "{records_per_frame} trace records, {calls_per_frame} Python "
            "calls".format(**scenarios["frame_cost"]),
            f"no-trace fast mode speedup: {trace['fast_mode_speedup']}x",
            f"no-trace fewer Python calls than traced: {fast_wins} "
            f"({trace['no_trace']['calls']} vs {trace['traced']['calls']})",
        ]
    )


def verdicts(body) -> List[str]:
    scenarios = body["scenarios"]
    trace = scenarios["trace_overhead"]
    frame = scenarios["frame_cost"]
    return failing(
        [
            (scenarios[name]["events"] > 0
             and scenarios[name]["events_per_sec"] > 0,
             f"{name}: no events processed")
            for name in ENGINE_SCENARIOS
        ]
        + [
            (scenarios["idle_wait"]["events_per_tick"]
             <= IDLE_EVENTS_PER_TICK_MAX,
             "idle_wait: an idle poll tick costs events again "
             f"(> {IDLE_EVENTS_PER_TICK_MAX} per tick)"),
            (frame["events_per_frame"] <= EVENTS_PER_FRAME_MAX,
             "frame_cost: a wire frame costs more than "
             f"{EVENTS_PER_FRAME_MAX} scheduled events"),
            (frame["records_per_frame"] <= RECORDS_PER_FRAME_MAX,
             "frame_cost: a wire frame costs more than "
             f"{RECORDS_PER_FRAME_MAX} trace records"),
            (trace["traced"]["events"] == trace["no_trace"]["events"],
             "trace_overhead: traced and no-trace runs processed "
             "different event counts"),
            (body["comparison"]["no_trace_fewer_calls_than_traced"],
             "no-trace fast mode makes no fewer Python calls than "
             "traced mode"),
        ]
    )
