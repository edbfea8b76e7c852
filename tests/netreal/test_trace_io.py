"""Trace JSONL round-trips and the wall-clock merge (ISSUE 7 satellite).

The regression being pinned: simulated traces carry integer-valued
microsecond timestamps, wall-clock traces arbitrary floats, and both
must survive dump/load/merge with their exact types — an ``int()``
anywhere in the path would silently collapse sub-microsecond wall-clock
orderings.  The invariant checker and span builder must accept either.

``test_tracer_from_records_rebuilds_counters`` is gone with
``tracer_from_records``: the real runner now feeds the merged records
through one ``SinkTable`` pass, as a chaos cell is judged, and no longer
wraps them in a ``Tracer``.  ``test_checker_and_spans_accept_mixed_
timestamp_types`` checks the bare record list with ``check_stream``, and
``test_runner_judges_a_merged_kv_trace_in_one_pass`` covers the pass.

A real run is judged by a chaos cell's own judges and returns a
``CellResult`` (``RealRunResult`` and ``analyze_merged`` are gone), and
a torn file no longer keeps the rest from being judged:
``test_runner_reports_a_torn_file_and_does_not_judge_it`` is now
``test_runner_reports_a_torn_file_and_judges_what_it_holds``.
"""

from repro.analysis.invariants import check_stream
from repro.netreal.trace_io import (
    dump_trace,
    load_trace,
    merge_records,
    merge_traces,
)
from repro.obs.spans import build_spans
from repro.sim.tracing import TraceRecord


def test_round_trip_preserves_timestamp_types(tmp_path):
    records = [
        TraceRecord(100, "kernel.tx", {"mid": 0}),  # sim: int µs
        TraceRecord(100.25, "kernel.rx", {"mid": 1}),  # real: float µs
        TraceRecord(100.75, "net.tx", {"src": 0, "dst": 1}),
    ]
    path = dump_trace(tmp_path / "t.jsonl", records, meta={"mid": 0})
    meta, loaded = load_trace(path)
    assert meta["mid"] == 0
    assert [r.time for r in loaded] == [100, 100.25, 100.75]
    assert type(loaded[0].time) is int
    assert type(loaded[1].time) is float
    assert [r.category for r in loaded] == [
        "kernel.tx",
        "kernel.rx",
        "net.tx",
    ]
    assert loaded[2].fields == {"src": 0, "dst": 1}


def test_merge_orders_across_streams_without_rounding():
    stream_a = [
        TraceRecord(10.5, "a1", {}),
        TraceRecord(12.25, "a2", {}),
    ]
    stream_b = [
        TraceRecord(10.75, "b1", {}),
        TraceRecord(12.25, "b2", {}),
    ]
    merged = merge_records([stream_a, stream_b])
    assert [r.category for r in merged] == ["a1", "b1", "a2", "b2"]
    # Sub-microsecond separations survive: int() here would make 10.5
    # and 10.75 tie and the order arbitrary.
    assert [r.time for r in merged] == [10.5, 10.75, 12.25, 12.25]


def test_merge_is_stable_within_a_stream():
    stream = [TraceRecord(5.0, f"e{i}", {}) for i in range(4)]
    merged = merge_records([stream])
    assert [r.category for r in merged] == ["e0", "e1", "e2", "e3"]


def test_merge_traces_pools_ledgers(tmp_path):
    a = dump_trace(
        tmp_path / "a.jsonl",
        [TraceRecord(1.5, "x", {})],
        meta={"mid": 0, "ledger": {"transmission": 10.0, "kernel": 2.0}},
    )
    b = dump_trace(
        tmp_path / "b.jsonl",
        [TraceRecord(1.25, "y", {})],
        meta={"mid": 1, "ledger": {"transmission": 5.0}},
    )
    metas, merged, ledger = merge_traces([a, b])
    assert [m["mid"] for m in metas] == [0, 1]
    assert [r.category for r in merged] == ["y", "x"]
    assert ledger.snapshot() == {"transmission": 15.0, "kernel": 2.0}


def test_checker_and_spans_accept_mixed_timestamp_types():
    """One requester's span with float (wall-clock) timestamps flows
    through the span builder and the strict invariant checker."""
    mid, tid = 7, 3
    records = [
        TraceRecord(
            1000.5,
            "kernel.request",
            {
                "mid": mid,
                "tid": tid,
                "dst": 2,
                "pattern": 1,
                "put": 4,
                "get": 4,
            },
        ),
        TraceRecord(
            1500, "kernel.rx", {"mid": 2, "ptype": "request", "tid": tid}
        ),
        TraceRecord(
            2000.25,
            "kernel.complete",
            {
                "mid": mid,
                "tid": tid,
                "status": "completed",
                "arg": 0,
                "taken_put": 4,
                "taken_get": 4,
                "reason": None,
                "not_executed": False,
            },
        ),
    ]
    spans = build_spans(records)
    assert len(spans) == 1
    assert spans[0].completed
    assert spans[0].latency_us == 2000.25 - 1000.5

    assert check_stream(records) == []


# -- a torn file (ISSUE 24 satellite) -----------------------------------------
# The runner terminate()s children that overrun — possibly mid-dump — and
# merges whatever files exist exactly when a run has failed: a truncated
# file must cost its own tail, not the failure report.


def _dump_two(path, mid=0):
    records = [
        TraceRecord(1.0, "kernel.request", {"mid": mid, "tid": 7, "dst": 9}),
        TraceRecord(
            2.0, "kernel.complete",
            {"mid": mid, "tid": 7, "status": "completed"},
        ),
    ]
    dump_trace(path, records, meta={"mid": mid, "records": len(records)})
    return records


def test_a_whole_file_is_not_torn(tmp_path):
    records = _dump_two(tmp_path / "t.jsonl")
    meta, loaded = load_trace(tmp_path / "t.jsonl")
    assert "torn" not in meta
    assert loaded == records


def test_load_stops_at_a_line_cut_mid_record(tmp_path):
    path = tmp_path / "t.jsonl"
    records = _dump_two(path)
    path.write_bytes(path.read_bytes()[:-15])
    meta, loaded = load_trace(path)
    assert loaded == records[:1]
    assert meta["torn"] == 1 and meta["records"] == 2
    metas, merged, _ledger = merge_traces([path])
    assert merged == records[:1] and metas[0]["torn"] == 1


def test_a_cut_between_lines_is_torn_by_the_headers_count(tmp_path):
    path = tmp_path / "t.jsonl"
    records = _dump_two(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))  # every remaining line decodes
    meta, loaded = load_trace(path)
    assert loaded == records[:1]
    assert meta["torn"] == 1


def test_runner_reports_a_torn_file_and_judges_what_it_holds(tmp_path):
    """A torn or missing file is a runner problem in the liveness
    column, and the records that were written are judged anyway."""
    from repro.netreal.runner import judge_traces

    paths = [tmp_path / f"trace-{mid}.jsonl" for mid in range(3)]
    for mid, path in enumerate(paths[:2]):
        _dump_two(path, mid)
    paths[1].write_bytes(paths[1].read_bytes()[:-15])
    node = {"workload": "pingpong", "seed": 1, "schedule": "calm"}
    result = judge_traces(paths, node, 6_000_000.0, ["run: timed out"])
    assert result.liveness_problems[:3] == [
        "run: timed out",
        "node 2 wrote no trace",
        "node 1's trace is torn: 1 of 2 records",
    ]
    # Node 1's REQUEST survived the cut, its completion did not: judged,
    # its span is pending past the grace window.
    assert result.spans_by_status == {"completed": 1, "pending": 1}
    assert result.liveness_problems[3:] == [
        "span <1,7> (signal) issued at t=0.0ms never reached a "
        "terminal status"
    ]
    assert not result.ok


def test_runner_judges_a_merged_kv_trace_in_one_pass(tmp_path):
    """A real run is judged by a chaos cell's own judges: a sim cell's
    retained trace, dumped as a node process dumps its own and handed to
    ``judge_traces``, gets the verdict ``run_cell`` gives that cell live
    (its node-state liveness half is clean, so the columns agree)."""
    from repro.chaos.runner import run_cell
    from repro.chaos.scenario import chaos_config, fault_counts, make_schedule
    from repro.netreal.runner import judge_traces
    from repro.workloads import build_workload

    cell = ("kvstore", "lossy", 1)
    built = build_workload("kvstore", seed=1, config=chaos_config())
    horizon = make_schedule("lossy", built.spec).run(built)
    net = built.net
    records = list(net.sim.trace.records)
    path = tmp_path / "trace-0.jsonl"
    dump_trace(path, records, meta={
        "ledger": net.ledger.snapshot(),
        "faults": fault_counts(net),
        "frames_sent": net.bus.frames_sent,
        "records": len(records),
    })
    node = dict(zip(("workload", "schedule", "seed"), cell))
    judged = judge_traces([path], node, horizon, []).to_dict()
    assert judged == run_cell(*cell, causal=True).to_dict()
    assert judged["ok"] and judged["kv"]["ops_invoked"]
    assert judged["faults"]["frames_lost"] > 0
