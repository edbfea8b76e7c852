"""Tier-1 gate for the observability subsystem (repro.obs).

Runs canned workloads through the metrics hub and checks the contract
the docs promise: spans match completed transactions, bus utilization is
sane, a counters-only run reports what a retained one does, and exports
are deterministic.

``test_live_and_posthoc_collection_agree`` is gone with
``MetricsHub.ingest``: the hub observes a run only through ``install``
(one ``SinkTable`` of the hub and its span builder), so there is no
post-hoc path to agree with.  ``test_counters_only_run_reports_what_a_
retained_run_does`` checks the property the ``metrics`` command now
rests on — it builds counters-only.

``test_records_only_ingest_matches_network_ingest`` is gone with
``MetricsHub.ingest_records``, whose one caller was the real runner: a
merged multi-process trace is now judged by one ``SinkTable`` pass
(``SpanBuilder`` for spans, ``percentile`` for rtt), which
``tests/netreal/test_trace_io.py::test_runner_judges_a_merged_kv_trace_
in_one_pass`` checks against the post-hoc functions.
"""

import json

from repro.workloads import build_workload
from repro.obs import MetricsHub
from repro.cli import main


def _observed(name, **kwargs):
    """``(network, report)`` of one run observed by an installed hub."""
    built = build_workload(name, **kwargs)
    hub = MetricsHub().install(built.net)
    return built.run(), hub.report()


def _report(name):
    return _observed(name)[1]


def test_span_count_matches_completed_transactions():
    net, report = _observed("echo")
    client = net.nodes[1].kernel.node.client.program
    completed = [
        span
        for span in report.completed_spans
        if not span.is_discover
    ]
    # The echo client ran 4 blocking exchanges to completion.
    assert len(client.completions) == 4
    assert len(completed) == 4
    assert all(span.verb == "exchange" for span in completed)
    # Every reconstructed span completion is also counted by the kernel.
    assert net.sim.trace.count("kernel.complete") == len(
        report.completed_spans
    )


def test_bus_utilization_in_unit_interval():
    report = _report("echo")
    utilization = report.snapshot["bus.utilization"]["value"]
    assert 0.0 < utilization <= 1.0


def test_key_metrics_present():
    report = _report("echo")
    names = set(report.snapshot)
    for required in (
        "kernel.tx_packets",
        "kernel.rx_packets",
        "kernel.requests",
        "kernel.completions",
        "bus.utilization",
        "cost.total_us",
        "transport.rtt_us",
        "txn.latency_ms.exchange",
    ):
        assert required in names, required


def test_counters_only_run_reports_what_a_retained_run_does():
    net_live, live = _observed("echo", keep_trace=False)
    retained = _report("echo")
    assert not net_live.sim.trace.records
    assert live.snapshot == retained.snapshot
    assert [s.to_dict() for s in live.spans] == [
        s.to_dict() for s in retained.spans
    ]
    assert net_live.sim.trace.count("kernel.request") > 0


def test_same_seed_runs_export_identically():
    first = _report("signal").to_dict()
    second = _report("signal").to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_metrics_cli(capsys, tmp_path):
    json_path = tmp_path / "BENCH_metrics.json"
    jsonl_path = tmp_path / "metrics.jsonl"
    rc = main(
        [
            "metrics",
            "signal",
            "--json",
            str(json_path),
            "--jsonl",
            str(jsonl_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    # Latency histogram and cost breakdown both printed.
    assert "txn.latency_ms.signal" in out
    assert "Cost breakdown" in out
    assert "protocol" in out
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == "soda.bench/1"
    assert payload["kind"] == "metrics"
    assert payload["meta"] == {"workload": "signal"}
    assert payload["body"]["spans"]["completed"] == 6
    assert jsonl_path.exists()
    lines = jsonl_path.read_text().splitlines()
    assert lines and all(json.loads(line)["name"] for line in lines)


def test_metrics_cli_rejects_unknown_workload(capsys):
    rc = main(["metrics", "nope"])
    assert rc == 2
    assert "unknown workload" in capsys.readouterr().err
