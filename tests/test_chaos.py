"""Tier-1 gate for the chaos sweep (repro.chaos).

A bounded handful of cells runs in the default suite; the full
(workload × schedule × seed) matrix hides behind the ``chaos`` marker:

    PYTHONPATH=src python -m pytest -m chaos tests/test_chaos.py

A sweep has one serialisation, ``bench.chaos.body``: the old report's
determinism test ``test_matrix_payload_is_deterministic`` is
``test_matrix_body_is_deterministic``.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench import chaos as chaos_bench
from repro.bench.registry import check_committed
from repro.chaos.runner import matrix_cells, run_cell, run_matrix
from repro.chaos.scenario import (
    SCHEDULES,
    ClientDie,
    DuplicateWindow,
    LossWindow,
    ReorderWindow,
    Scenario,
    TargetedDrop,
    make_schedule,
)
from repro.chaos.shrink import format_repro, shrink_scenario
from repro.core import Network
from repro.net import FaultPlan
from repro.workloads import WORKLOADS, get_spec

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Bounded gate: representative cells that exercise every action type.


GATE_CELLS = [
    ("echo", "lossy"),
    ("echo", "client_flap"),
    ("echo", "server_crash"),
    ("cancel", "strike"),
    ("signal", "partition"),
    ("busy", "server_flap"),
    ("supervised", "crash_idle"),
    ("supervised", "crash_load"),
    ("supervised", "flap"),
    ("kvstore", "duplicate"),
    ("kvstore", "reorder"),
    ("kvstore_supervised", "primary_crash_load"),
    ("kvstore_supervised", "backup_flap"),
    ("kvstore_supervised", "partition_heal"),
    ("kvstore", "cluster_restart"),
    ("kvstore", "cluster_power_loss"),
    ("kvstore", "torn_write_primary"),
    ("kvstore_supervised", "bitrot_backup"),
]


#: Cells at other seeds with a history: a KV primary's round once wedged
#: in both when an ACCEPT on a connection declared dead left its
#: delivery answering PROBEs "alive" forever (DESIGN.md §13.3).
SEEDED_GATE_CELLS = [
    ("kvstore_supervised", "partition_heal", 7),
    ("kvstore_supervised", "partition_heal", 9),
]


def _assert_clean(result):
    failures = (
        result.invariant_violations
        + result.liveness_problems
        + result.consistency_problems
    )
    assert result.ok, "\n".join(failures)


@pytest.mark.parametrize("workload,schedule", GATE_CELLS)
def test_gate_cell_is_clean(workload, schedule):
    _assert_clean(run_cell(workload, schedule, seed=1))


@pytest.mark.parametrize("workload,schedule,seed", SEEDED_GATE_CELLS)
def test_seeded_gate_cell_is_clean(workload, schedule, seed):
    _assert_clean(run_cell(workload, schedule, seed=seed))


def test_gate_cells_inject_real_faults():
    """The noise schedules must actually touch the wire — a sweep that
    injects nothing is a green light that proves nothing."""
    lossy = run_cell("echo", "lossy", seed=1)
    assert lossy.faults["frames_lost"] + lossy.faults["frames_corrupted"] > 0
    strike = run_cell("cancel", "strike", seed=1)
    assert strike.faults["frames_scripted_drops"] > 0
    dup = run_cell("kvstore", "duplicate", seed=1)
    assert dup.faults["deliveries_duplicated"] > 0
    reorder = run_cell("kvstore", "reorder", seed=1)
    assert reorder.faults["deliveries_reordered"] > 0


def test_client_flap_produces_crashed_or_cancelled_spans():
    result = run_cell("echo", "client_flap", seed=1)
    terminal_faulty = (
        result.spans_by_status.get("crashed", 0)
        + result.spans_by_status.get("cancelled", 0)
    )
    assert terminal_faulty > 0, result.spans_by_status


# ---------------------------------------------------------------------------
# Recovery schedules: the self-heal contract (docs/RECOVERY.md).


def test_recovery_schedules_inject_and_heal():
    from repro.chaos.scenario import RECOVERY_SCHEDULES

    for schedule in RECOVERY_SCHEDULES:
        result = run_cell("supervised", schedule, seed=1)
        assert result.ok, (schedule, result.selfheal_problems)
        counts = result.recovery["counts"]
        # The schedule really killed the service and the supervisor
        # really brought it back — a sweep that heals nothing proves
        # nothing.
        assert counts["crashes_detected"] >= 1, schedule
        assert counts["reboots_issued"] >= 1, schedule
        assert counts["restored"] >= 1, schedule
        assert counts["escalations"] == 0, schedule


def test_crash_idle_exercises_safe_retry():
    # The DIE lands mid-exchange: the retry shim must re-issue at least
    # one provably-unexecuted op (and everything still converges).
    result = run_cell("supervised", "crash_idle", seed=1)
    assert result.ok
    assert result.recovery["counts"]["retries"] >= 1


def test_calm_schedule_has_zero_false_suspicions():
    # Acceptance: a fault-free sweep reports no crash activity at all,
    # for every workload.
    for workload in sorted(WORKLOADS):
        result = run_cell(workload, "calm", seed=1)
        assert result.ok, (workload, result.to_dict())
        counts = result.recovery["counts"]
        assert counts["crash_reports"] == 0, workload
        assert counts["crashes_detected"] == 0, workload
        assert result.recovery["false_suspicions"] == 0, workload
        assert result.faults["frames_lost"] == 0


def test_selfheal_failure_flips_cell_to_failed():
    from repro.chaos.runner import CellResult

    cell = CellResult(
        workload="supervised",
        schedule="crash_idle",
        seed=1,
        horizon_us=0.0,
        selfheal_problems=["service mid 0 was not restored"],
    )
    assert not cell.ok
    assert cell.to_dict()["selfheal_problems"]


# ---------------------------------------------------------------------------
# Determinism: same seed ⇒ identical report.


def test_cell_result_is_deterministic():
    first = run_cell("stream", "lossy", seed=7)
    second = run_cell("stream", "lossy", seed=7)
    assert first.to_dict() == second.to_dict()


def test_matrix_body_is_deterministic():
    kwargs = dict(workloads=["echo"], schedules=["strike", "client_flap"])
    one = chaos_bench.body(run_matrix(seeds=(3,), **kwargs), 3)
    two = chaos_bench.body(run_matrix(seeds=(3,), **kwargs), 3)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_parallel_matrix_is_byte_identical_to_serial():
    # The parallel sweep contract (docs/SIM.md): farming cells out to
    # worker processes must not change a byte of the merged report.
    kwargs = dict(
        workloads=["echo", "cancel"], schedules=["calm", "strike"]
    )
    serial = chaos_bench.body(run_matrix(seeds=(1,), **kwargs), 1)
    parallel = chaos_bench.body(
        run_matrix(seeds=(1,), parallel=2, **kwargs), 1
    )
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )


def test_parallel_matrix_preserves_progress_order():
    # progress() fires in canonical enumeration order even when workers
    # finish out of order, so CLI output stays deterministic.
    seen = []
    results = run_matrix(
        workloads=["echo"],
        schedules=["calm", "strike"],
        seeds=(1,),
        parallel=2,
        progress=lambda r: seen.append(r.key),
    )
    assert seen == [r.key for r in results]
    assert seen == sorted(seen)


def test_matrix_enumeration_covers_at_least_24_cells():
    cells = matrix_cells()
    assert len(cells) >= 24
    assert len(cells) == len(WORKLOADS) * len(SCHEDULES)
    assert cells == sorted(cells)


def test_causal_only_workloads_stay_out_of_the_matrix():
    # philosophers_noarb deadlocks by design (SODA013 demo); it must
    # never enter the standard sweep, which asserts liveness.
    assert all("philosophers_noarb" not in cell for cell in matrix_cells())
    assert "philosophers_noarb" not in WORKLOADS


# ---------------------------------------------------------------------------
# Causal verdict column (--causal): SODA010-013 per cell.


def test_causal_column_is_clean_on_a_gate_cell():
    result = run_cell("echo", "sustained_loss", seed=1, causal=True)
    assert result.causal_problems == []
    assert result.ok
    assert "causal_problems" in result.to_dict()


def test_causal_column_defaults_off():
    result = run_cell("echo", "calm", seed=1)
    assert result.causal_problems == []


# ---------------------------------------------------------------------------
# A stream exchange stranded by nine calm drops (ROADMAP 1(b), fixed).

#: Three scripted strikes, all armed at 0 µs: the client's first
#: REQUEST, the server's first NACK, and seven client REQUESTs after
#: skipping two.  No RNG in the fault path.
STRANDED_EXCHANGE = Scenario(
    "stranded_exchange",
    (
        TargetedDrop(0.0, ptype="request", src="client"),
        TargetedDrop(0.0, ptype="nack", src="server"),
        TargetedDrop(0.0, ptype="request", src="client", skip=2, count=7),
    ),
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nine_calm_drops_strand_a_stream_exchange(seed):
    """ROADMAP item 1(b)'s shape on a calm schedule, fixed.  The client
    declares the server dead with <1,0>'s pulled DATA still queued, and
    opens a new connection; the server's ACCEPT of <1,0>, which waits
    for that DATA, ends CRASHED when the new connection's first REQUEST
    arrives.  Before the fix the delivery stayed ``accepted`` to the
    horizon, <1,4>–<1,6> never terminated (``{'completed': 1, 'crashed':
    3, 'pending': 3}``) and the client BUSY-retried for 59 s."""
    result = run_cell(
        "stream", "stranded_exchange", seed, scenario=STRANDED_EXCHANGE
    )
    assert result.faults["frames_scripted_drops"] == 9
    assert result.ok, result.problems()
    assert result.spans_by_status == {"completed": 9, "crashed": 3}
    assert result.frames_sent == 60


@pytest.mark.parametrize(
    "spared,spans",
    [
        (0, {"completed": 9, "crashed": 3}),
        (1, {"completed": 12}),
        (2, {"completed": 12}),
    ],
)
def test_each_stranding_strike_is_needed(spared, spans):
    """Without any one of the three strikes the cell is clean: each hits
    a frame the bug needs."""
    actions = STRANDED_EXCHANGE.actions
    scenario = Scenario(
        "stranded_exchange", actions[:spared] + actions[spared + 1 :]
    )
    result = run_cell("stream", "stranded_exchange", 1, scenario=scenario)
    assert result.ok, result.problems()
    assert result.spans_by_status == spans


# ---------------------------------------------------------------------------
# Shrinker + reproducer formatting (synthetic predicate: no sim runs).


def _toy_scenario():
    return Scenario(
        "toy",
        (
            LossWindow(0.0, 1_000.0, loss=0.5),
            ClientDie(10.0, role="client"),
            TargetedDrop(0.0, ptype="ack", skip=1),
        ),
    )


def test_shrink_to_single_culprit():
    scenario = _toy_scenario()

    def still_fails(trial):
        return any(isinstance(a, ClientDie) for a in trial.actions)

    minimal = shrink_scenario(scenario, still_fails)
    assert len(minimal.actions) == 1
    assert isinstance(minimal.actions[0], ClientDie)


def test_shrink_keeps_failing_pair():
    scenario = _toy_scenario()

    def still_fails(trial):
        kinds = {type(a) for a in trial.actions}
        return {ClientDie, TargetedDrop} <= kinds

    minimal = shrink_scenario(scenario, still_fails)
    assert {type(a) for a in minimal.actions} == {ClientDie, TargetedDrop}


def test_shrink_respects_max_runs():
    scenario = _toy_scenario()
    calls = []

    def still_fails(trial):
        calls.append(trial)
        return True

    shrink_scenario(scenario, still_fails, max_runs=2)
    assert len(calls) <= 2


def test_format_repro_is_pasteable_python():
    scenario = Scenario("client_flap", (ClientDie(25_000.0, role="client"),))
    text = format_repro("echo", 1, scenario, ["span <1,1> never terminal"])
    assert "def test_chaos_regression_echo_client_flap_seed1" in text
    assert "ClientDie(at_us=25000.0, role='client')" in text
    compile(text, "<repro>", "exec")  # must be valid Python as-is
    # The pasted test imports every action class its scenario uses
    # (DiskFault, PowerLoss, ThunderingHerd here) and runs as-is.
    for workload, schedule in (
        ("kvstore", "cluster_power_loss"),
        ("busy", "thundering_herd"),
    ):
        scenario = make_schedule(schedule, get_spec(workload))
        namespace = {}
        exec(format_repro(workload, 1, scenario, []), namespace)
        namespace[f"test_chaos_regression_{workload}_{schedule}_seed1"]()


#: Each fault window and the two bus fault-plan dials it turns.
WINDOW_DIALS = {
    LossWindow: ("loss_probability", "corruption_probability"),
    DuplicateWindow: ("duplicate_probability", "duplicate_delay_us"),
    ReorderWindow: ("reorder_probability", "reorder_extra_us"),
}


@pytest.mark.parametrize("window", list(WINDOW_DIALS), ids=lambda w: w.__name__)
def test_a_window_restores_what_it_found(window):
    """A window nested in another puts the outer one's dials back when it
    closes, and one that closes before it opens leaves a quiet plan's."""
    net = Network(seed=1)
    built = SimpleNamespace(net=net)

    def dials():
        return tuple(getattr(net.faults, name) for name in WINDOW_DIALS[window])

    quiet = tuple(getattr(FaultPlan(), name) for name in WINDOW_DIALS[window])
    window(1_000.0, 4_000.0, 0.5, 700.0).apply(built)
    window(2_000.0, 3_000.0, 0.25, 900.0).apply(built)
    net.run(until=2_500.0)
    assert dials() == (0.25, 900.0)
    net.run(until=3_500.0)
    assert dials() == (0.5, 700.0)
    net.run(until=4_500.0)
    assert dials() == quiet

    for name in WINDOW_DIALS[window]:
        setattr(net.faults, name, 0.75)
    window(6_000.0, 5_000.0, 0.5, 700.0).apply(built)
    net.run(until=5_500.0)
    assert dials() == quiet


def test_make_schedule_unknown_name():
    with pytest.raises(KeyError, match="unknown schedule"):
        make_schedule("nope", get_spec("echo"))


# ---------------------------------------------------------------------------
# Full sweep (slow-ish; run with `-m chaos`).


@pytest.mark.chaos
def test_full_matrix_is_clean(monkeypatch):
    """Every (workload × schedule) cell is clean in all six verdict
    columns, the causal one included: the SODA010-013 rules must stay
    silent on surviving-the-chaos runs.

    One sweep where there were two.  The second,
    ``test_full_matrix_streaming_verdicts_match_batch``, re-ran the
    matrix with ``causal=True`` to compare the streaming checker's
    verdicts with the batch replay's (there is one checker now) and to
    assert ``causal_problems`` empty — which ``r.ok`` below includes.

    The sweep is also ``bench chaos --causal --parallel 2 --check``:
    its rows must be the bytes of the committed ``BENCH_chaos.json``,
    the verdict contract, so tier-1 sweeps the matrix once for both.
    """
    # parallel=2 doubles as the full-matrix determinism gate: the
    # harness asserts the same verdicts the serial sweep has always
    # produced, via worker processes.
    results = run_matrix(seeds=(chaos_bench.SEED,), causal=True, parallel=2)
    assert len(results) >= 24
    failed = [r for r in results if not r.ok]
    report = "\n".join(
        f"{r.workload}/{r.schedule}: " + "; ".join(r.problems())
        for r in failed
    )
    assert not failed, report
    monkeypatch.chdir(ROOT)
    body = chaos_bench.body(results, chaos_bench.SEED)
    assert check_committed("chaos", body) == []
