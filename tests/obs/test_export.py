"""Exporter tests: snapshot envelope, JSONL, console rendering."""

import json

from repro.obs.export import (
    BENCH_SCHEMA,
    emit_snapshot,
    render_metrics,
    render_span_table,
    serialize_snapshot,
    snapshot_payload,
    write_metrics_jsonl,
    write_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import TransactionSpan


def _registry():
    reg = MetricsRegistry()
    reg.counter("kernel.tx_packets").inc(4)
    reg.gauge("bus.utilization").set(0.25)
    hist = reg.histogram("txn.latency_ms.put")
    for value in (1.0, 2.0, 3.0):
        hist.observe(value)
    return reg


def test_snapshot_envelope():
    payload = snapshot_payload("metrics", {"a": 1}, meta={"workload": "echo"})
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["kind"] == "metrics"
    assert payload["meta"] == {"workload": "echo"}
    assert payload["body"] == {"a": 1}


def test_write_snapshot_round_trips(tmp_path):
    payload = snapshot_payload("metrics", _registry().snapshot())
    target = write_snapshot(tmp_path / "BENCH_test.json", payload)
    text = target.read_text()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == payload
    # Keys come out sorted, so serialization is deterministic.
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_serialize_snapshot_compacts_only_a_rows_mapping():
    """A ``rows`` mapping (``bench chaos``) keeps one compact line per
    row, in key order; a ``rows`` list is laid out like any other value."""
    row = {"ok": True, "spans": [1, 2]}
    listed = snapshot_payload("listed", {"rows": [row, row]})
    assert serialize_snapshot(listed) == (
        json.dumps(listed, sort_keys=True, indent=2) + "\n"
    )
    mapped = snapshot_payload("mapped", {"rows": {"b": row, "a": row}})
    text = serialize_snapshot(mapped)
    compact = '{"ok":true,"spans":[1,2]}'
    assert f'"a": {compact},\n      "b": {compact}\n' in text


def test_emit_snapshot_envelopes_and_announces(tmp_path):
    """The one-call helper every BENCH_*.json emitter shares."""
    announced = []
    target = emit_snapshot(
        tmp_path / "BENCH_emit.json",
        "metrics",
        {"a": 1},
        meta={"workload": "echo"},
        out=announced.append,
    )
    assert announced == [f"wrote {target}"]
    parsed = json.loads(target.read_text())
    assert parsed == snapshot_payload(
        "metrics", {"a": 1}, meta={"workload": "echo"}
    )


def test_write_metrics_jsonl(tmp_path):
    snapshot = _registry().snapshot()
    target = write_metrics_jsonl(tmp_path / "metrics.jsonl", snapshot)
    lines = target.read_text().splitlines()
    assert len(lines) == len(snapshot)
    names = [json.loads(line)["name"] for line in lines]
    assert names == sorted(snapshot)
    parsed = json.loads(lines[0])
    assert parsed["name"] == "bus.utilization"
    assert parsed["type"] == "gauge"
    assert parsed["value"] == 0.25


def test_render_metrics_lists_all_metrics():
    text = render_metrics(_registry().snapshot())
    assert "kernel.tx_packets" in text
    assert "bus.utilization" in text
    assert "txn.latency_ms.put" in text
    assert "p99" in text


def test_render_span_table_limits_rows():
    spans = [
        TransactionSpan(
            requester_mid=1,
            tid=tid,
            server_mid=0,
            pattern=0,
            verb="signal",
            put_bytes=0,
            get_bytes=0,
            request_us=float(tid),
            complete_us=float(tid) + 100.0,
            status="completed",
        )
        for tid in range(30)
    ]
    text = render_span_table(spans, limit=5)
    assert "<1,#0>" in text
    assert "<1,#4>" in text
    assert "<1,#5>" not in text
