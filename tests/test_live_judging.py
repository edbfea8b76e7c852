"""Live judging equals post-hoc judging (DESIGN.md §12.2).

``run_cell`` judges a cell through one :class:`~repro.sim.tracing.
SinkTable` on the tracer and retains no record.  The way it judged
before — build retained, run, then walk the list with the public
post-hoc functions — is kept *here* as the reference
(:func:`reference_run_cell`), so a sink that drifts from its function
fails a test instead of moving a verdict quietly.

Both sides judge completion by the one rule (an open delivered cell is a
leak unless its requester stopped waiting), so the reference runs
``check_network`` strict, as ``run_cell``'s checker is.

Two ids are gone since the causal engine became a sink and the metrics
hub install-only (DESIGN.md §12.2):

* ``test_causal_cell_retains_every_record`` — a causal cell retains
  nothing now; ``test_causal_cell_peaks_with_a_plain_one`` asserts that
  (``keep_records`` False, every record fed) and bounds its peak by the
  plain cell's, and ``test_causal_cell_equals_post_hoc_verdict`` still
  compares its verdict with the batch engine's
  (``tests/analysis/test_causal_sink.py`` keeps that engine).
* ``test_post_hoc_judge_refuses_a_partial_trace[{'keep_trace': False}-
  MetricsHub.ingest]`` — ``MetricsHub.ingest`` is gone; a hub observes a
  run only through ``install``, which ``tests/test_observability.py``
  checks on a counters-only build.
"""

import gc
import itertools
import tracemalloc

import pytest

from repro.analysis.invariants import check_network
from repro.workloads import build_workload
from repro.chaos import runner
from repro.chaos.liveness import check_degradation, check_liveness
from repro.chaos.runner import (
    DEFAULT_DEGRADATION_BOUNDS,
    DEGRADATION_BOUNDS,
    CellResult,
    run_cell,
)
from repro.chaos.scenario import chaos_config, fault_counts, make_schedule
from repro.obs.spans import build_spans
from repro.recovery.convergence import check_self_heal, recovery_summary
from repro.replication import check_kv_consistency, kv_summary
from repro.sim.tracing import SinkTable
from repro.transport import packet
from tests.test_chaos import GATE_CELLS

BASELINE_CELL = ("kvstore_supervised", "primary_crash_load", 3)
#: perf's ``kv_faults`` schedules, one cell each.
KV_FAULT_CELLS = [
    ("kvstore_supervised", schedule, 3)
    for schedule in (
        "cluster_restart",
        "cluster_power_loss",
        "partition_heal",
        "backup_flap",
        "torn_write_primary",
    )
]
#: Cells whose verdict lists were not empty, so the comparison is word
#: for word: ``cancel/lossy/5`` still is (ROADMAP item 1(a)).
#: ``busy/duplicate/93`` is clean since SODA007 judges the retry
#: decision, not the wire, and ``stream/sustained_loss/6`` since the
#: server settles a pulled ACCEPT whose requester opened a new
#: connection (ROADMAP item 1(b)); it reported ``INV-COMPLETE [mid=0]
#: request <1,5> left in state 'accepted'`` at 59 950 ms before.
UNCLEAN_CELLS = [("cancel", "lossy", 5)]
ONCE_UNCLEAN_CELLS = [("stream", "sustained_loss", 6), ("busy", "duplicate", 93)]
CELLS = (
    [(workload, schedule, 1) for workload, schedule in GATE_CELLS]
    + [BASELINE_CELL]
    + KV_FAULT_CELLS
    + UNCLEAN_CELLS
    + ONCE_UNCLEAN_CELLS
)


def cell_param(cell, id=None):
    return pytest.param(cell, id=id or "/".join(map(str, cell)))


CELL_PARAMS = [cell_param(cell) for cell in CELLS]


def reference_run_cell(workload, schedule, seed, causal=False):
    """``run_cell`` as it was while the trace was retained and walked
    once per judge."""
    from tests.analysis.test_causal_sink import reference_causal

    built = build_workload(workload, seed=seed, config=chaos_config())
    scenario = make_schedule(schedule, built.spec)
    horizon = scenario.run(built)
    net = built.net
    records = net.sim.trace.records

    violations = check_network(net)
    causal_problems = (
        reference_causal(list(records))[0] if causal else []
    )
    spans = build_spans(records)
    summary = kv_summary(records)
    by_status = {}
    for span in spans:
        by_status[span.status] = by_status.get(span.status, 0) + 1
    return CellResult(
        workload=workload,
        schedule=schedule,
        seed=seed,
        horizon_us=horizon,
        invariant_violations=[v.format() for v in violations],
        liveness_problems=check_liveness(net, spans=spans),
        selfheal_problems=check_self_heal(built, scenario.last_action_us),
        degradation_problems=check_degradation(
            spans,
            horizon,
            DEGRADATION_BOUNDS.get(schedule, DEFAULT_DEGRADATION_BOUNDS),
        ),
        causal_problems=causal_problems,
        consistency_problems=check_kv_consistency(records),
        recovery=recovery_summary(records),
        kv=summary if summary["ops_invoked"] else {},
        spans_by_status=by_status,
        faults=fault_counts(net),
        frames_sent=net.bus.frames_sent,
    )


@pytest.mark.parametrize("cell", CELL_PARAMS)
def test_live_verdict_equals_post_hoc_verdict(cell, monkeypatch):
    def as_in_a_fresh_process(fn):
        # Packet ids are minted per process and SODA007 quotes one.
        monkeypatch.setattr(packet, "_packet_ids", itertools.count(1))
        return fn(*cell).to_dict()

    live = as_in_a_fresh_process(run_cell)
    assert live == as_in_a_fresh_process(reference_run_cell)
    if cell in UNCLEAN_CELLS:
        assert not live["ok"]
    if cell in ONCE_UNCLEAN_CELLS:
        assert live["ok"], live
    if cell == ONCE_UNCLEAN_CELLS[0]:
        assert (live["spans_by_status"], live["frames_sent"]) == (
            {"completed": 7, "crashed": 5}, 118,
        )


@pytest.mark.parametrize(
    "cell",
    [
        cell_param(BASELINE_CELL, "kv"),
        cell_param(ONCE_UNCLEAN_CELLS[0], "stream"),
    ],
)
def test_causal_cell_equals_post_hoc_verdict(cell):
    assert (
        run_cell(*cell, causal=True).to_dict()
        == reference_run_cell(*cell, causal=True).to_dict()
    )


# -- retention ---------------------------------------------------------------


@pytest.fixture
def cells_seen(monkeypatch):
    """``(built workload, sink table)`` of every cell ``run_cell`` runs
    while the fixture is active."""
    built, tables = [], []

    def capture(*args, **kwargs):
        built.append(build_workload(*args, **kwargs))
        return built[-1]

    class CapturedTable(SinkTable):
        def __init__(self, *sinks):
            super().__init__(*sinks)
            tables.append(self)

    monkeypatch.setattr(runner, "build_workload", capture)
    monkeypatch.setattr(runner, "SinkTable", CapturedTable)
    return built, tables


def test_non_causal_cell_retains_nothing_and_feeds_everything(cells_seen):
    assert run_cell(*BASELINE_CELL).ok
    ((built,), (table,)) = cells_seen
    trace = built.net.sim.trace
    assert len(trace.records) == 0 and not trace.keep_records
    # Every record of the big crash-and-failover cell, not a trivial one:
    # 5 699 since a calm primary runs one idle round per quiet period
    # (8 082 before, 8 766 before the commit index rode the next round,
    # 9 810 before a round sent only the phases with something to carry,
    # 14 165 before the supervisor DISCOVERed each pattern once a poll).
    assert table.records_fed == sum(trace.counters.values()) >= 5_699
    assert 0.0 < table.end_time <= built.net.sim.now
    # Uninstalled after the run: the sinks die with run_cell's frame,
    # not with the network's reference cycles.
    assert trace.passive


def _peak_of(fn, *args, **kwargs):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_causal_cell_peaks_with_a_plain_one(cells_seen):
    """The causal engine is one more sink in the table: a causal cell
    keeps no record, and peaks within 1.1× of the same cell without
    ``causal`` (3.94 MB against 0.65 MB while the engine indexed a
    retained trace).  Fails when the engine keeps history per record."""
    run_cell("echo", "calm", 1, causal=True)  # imports and caches
    plain = _peak_of(run_cell, *BASELINE_CELL)
    causal = _peak_of(run_cell, *BASELINE_CELL, causal=True)
    (_echo, _plain, built), (*_, table) = cells_seen
    trace = built.net.sim.trace
    assert not trace.keep_records and len(trace.records) == 0
    assert table.records_fed == sum(trace.counters.values()) > 0
    assert causal <= 1.1 * plain, (causal, plain)


def test_sinks_must_be_installed_before_the_first_record(monkeypatch):
    def forged(*args, **kwargs):
        built = build_workload(*args, **kwargs)
        built.net.sim.trace.record(0.0, "kernel.boot_handler", mid=1)
        return built

    monkeypatch.setattr(runner, "build_workload", forged)
    with pytest.raises(RuntimeError, match="1 record.* before the sinks"):
        run_cell("echo", "calm", 1)


#: Peak bytes a retained run holds beyond a live one, per record emitted:
#: 194 when the supervisor polled each replica with its own broadcast,
#: 170 since.  A ratio of the two peaks drifts with traffic instead (the
#: network's fixed cost is a larger share of a shorter trace).
RETAINED_BYTES_PER_RECORD = 120


def test_live_cell_peaks_at_a_quarter_of_the_retained_one(cells_seen):
    """A live cell keeps no record, so the retained run's peak is higher
    by at least ``RETAINED_BYTES_PER_RECORD`` per record emitted.  Fails
    when a sink appends every record it is fed."""
    run_cell("echo", "calm", 1)  # imports and caches, outside both peaks
    live = _peak_of(run_cell, *BASELINE_CELL)
    retained = _peak_of(reference_run_cell, *BASELINE_CELL)
    (_echo, built), _tables = cells_seen
    records = sum(built.net.sim.trace.counters.values())
    assert retained - live >= RETAINED_BYTES_PER_RECORD * records, (
        live, retained, records,
    )


# -- a post-hoc judge must see the whole run -----------------------------------


def _ran(name, **kwargs):
    built = build_workload(name, **kwargs)
    built.net.run(until=built.spec.until_us)
    return built


POST_HOC_ENTRY_POINTS = {
    "check_network": lambda built: check_network(built.net),
    "check_liveness": lambda built: check_liveness(built.net),
    "check_self_heal": lambda built: check_self_heal(built, 0.0),
}


@pytest.mark.parametrize("entry", sorted(POST_HOC_ENTRY_POINTS))
@pytest.mark.parametrize("shape", [{"keep_trace": False}], ids=str)
def test_post_hoc_judge_refuses_a_partial_trace(entry, shape):
    """Counters-only, the judges passed vacuously.  (A ring-buffer trace
    was the other partial shape, refused the same way; the ring is gone,
    and its four ``{'max_trace_records': 50}`` ids with it.)"""
    built = _ran("supervised" if entry == "check_self_heal" else "echo", **shape)
    trace = built.net.sim.trace
    assert not trace.keep_records
    assert sum(trace.counters.values()) > len(trace.records) == 0
    with pytest.raises(ValueError, match="counters-only.*install"):
        POST_HOC_ENTRY_POINTS[entry](built)


def test_post_hoc_judges_still_check_a_retained_run():
    built = _ran("echo")
    assert built.net.sim.trace.keep_records
    assert check_network(built.net) == []
    assert check_liveness(built.net) == []
    assert check_self_heal(built, 0.0) == []
