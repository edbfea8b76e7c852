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

    assert check_stream(records, strict_completion=True) == []


# -- a torn file (ISSUE 24 satellite) -----------------------------------------
# The runner terminate()s children that overrun — possibly mid-dump — and
# merges whatever files exist exactly when a run has failed: a truncated
# file must cost its own tail, not the failure report.


def _dump_two(path, mid=0):
    records = [
        TraceRecord(1.0, "kernel.request", {"mid": mid, "tid": 7}),
        TraceRecord(2.0, "kernel.complete", {"mid": mid, "tid": 7}),
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


def test_runner_reports_a_torn_file_and_does_not_judge_it(tmp_path):
    from repro.netreal.runner import RealRunResult, judge_traces, policy_for

    paths = [tmp_path / f"trace-{mid}.jsonl" for mid in range(2)]
    for mid, path in enumerate(paths):
        _dump_two(path, mid)
    paths[1].write_bytes(paths[1].read_bytes()[:-15])
    result = RealRunResult(
        workload="pingpong", seed=1, policy="adaptive", loss=0.0,
        processes=2, records=0,
    )
    judge_traces(paths, policy_for("adaptive"), result, out=lambda line: None)
    assert result.runner_problems == ["node 1's trace is torn: 1 of 2 records"]
    assert not result.ok
    assert result.records == 3
    # All files are present, yet the clean path (which would have judged
    # the half-run and counted its spans) was not taken.
    assert result.spans_total == 0
    assert [entry["time"] for entry in result.partial_trace_tail] == [1.0, 1.0, 2.0]


def test_runner_judges_a_merged_kv_trace_in_one_pass():
    """One ``SinkTable`` pass over a merged stream gives the verdicts
    and counts the post-hoc functions give the same records; a KV run
    is judged with non-strict completion, as a chaos cell is."""
    from repro.chaos.liveness import percentile
    from repro.netreal.runner import RealRunResult, analyze_merged
    from repro.obs.spans import build_spans
    from repro.replication import check_kv_consistency, kv_summary
    from repro.transport.retransmit import RetransmitPolicy
    from repro.workloads import build_workload
    from tests.analysis.test_causal_sink import reference_causal

    net = build_workload("kvstore").run()
    records = list(net.sim.trace.records)
    result = RealRunResult(
        workload="kvstore", seed=18, policy="static", loss=0.0,
        processes=4, records=len(records),
    )
    analyze_merged(records, net.ledger, RetransmitPolicy(), result)

    assert result.invariant_violations == [
        v.format()
        for v in check_stream(records, strict_completion=False, ledger=net.ledger)
    ]
    assert result.causal_diagnostics == reference_causal(records)[0]
    assert result.kv == kv_summary(records) and result.kv["ops_invoked"]
    assert result.consistency_problems == check_kv_consistency(records)
    spans = build_spans(records)
    assert (result.spans_total, result.spans_completed) == (
        len(spans), sum(1 for span in spans if span.completed),
    )
    rtts = [rec["rtt_us"] for rec in records if rec.category == "conn.acked"]
    assert (result.rtt_p50_us, result.rtt_p99_us) == (
        percentile(rtts, 0.50), percentile(rtts, 0.99),
    )
    assert result.retransmits == sum(
        1 for rec in records if rec.category == "conn.retransmit"
    )
    assert result.ok, result.problems()
