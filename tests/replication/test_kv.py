"""Integration tests for the replicated KV store (repro.replication).

Each test runs a whole workload through the sim — replicas, supervisor,
client — under a scripted fault schedule, then judges the merged trace
with the same consistency checker the chaos harness and the netreal
runner use.
"""

import pytest

from repro.workloads import build_workload
from repro.chaos.runner import run_cell
from repro.chaos.scenario import (
    DuplicateWindow,
    NodeCrash,
    Partition,
    Reboot,
    ReorderWindow,
    Scenario,
)
from repro.replication.consistency import check_kv_consistency, kv_summary


def _run(workload, scenario=None, seed=None):
    built = build_workload(workload, seed=seed)
    (scenario or Scenario("no_faults", ())).run(built)
    return built


def _client(built):
    return built.net.nodes[built.mid_of("client")].kernel.client.program


def _counts(built):
    counts = {}
    for rec in built.net.sim.trace.records:
        if rec.category.startswith("kv."):
            counts[rec.category] = counts.get(rec.category, 0) + 1
    return counts


def test_kvstore_happy_path_linearizable():
    built = _run("kvstore")
    records = built.net.sim.trace.records
    assert check_kv_consistency(records) == []
    outcomes = _client(built).outcomes
    assert len(outcomes) == 30
    assert set(outcomes.values()) == {"ok"}
    summary = kv_summary(records)
    assert summary["availability"] == 1.0
    # Cold boot elects exactly one primary.
    assert summary["promotions"] == 1
    # All three replicas applied the whole log.
    assert summary["entries_applied"] % 3 == 0


def test_supervised_failover_keeps_serving_through_primary_crash():
    scenario = Scenario(
        "primary_crash_load",
        (NodeCrash(200_000.0, role="replica0"),),
    )
    built = _run("kvstore_supervised", scenario)
    records = built.net.sim.trace.records
    assert check_kv_consistency(records) == []
    summary = kv_summary(records)
    # Cold-boot promotion plus the supervisor-nominated failover.
    assert summary["promotions"] >= 2
    # Every op reached a definitive outcome despite the crash.
    assert summary["ops_definitive"] == summary["ops_invoked"] == 30


def test_unsupervised_cluster_fails_safe_without_failover():
    # No supervisor, no scripted reboot: the backups must *refuse* to
    # serve rather than elect wildly; clients see unavail, never lies.
    scenario = Scenario(
        "primary_crash_load",
        (NodeCrash(200_000.0, role="replica0"),),
    )
    built = _run("kvstore", scenario)
    records = built.net.sim.trace.records
    assert check_kv_consistency(records) == []
    outcomes = _client(built).outcomes
    assert "unavail" in set(outcomes.values())


def test_partition_fences_stale_primary():
    # Isolate the primary long enough for the supervisor to promote a
    # replacement; at heal the stale primary must be demoted by epoch
    # fencing, not allowed to keep acking.
    scenario = Scenario(
        "partition_heal",
        (Partition(120_000.0, 2_600_000.0, isolate=("replica0",)),),
    )
    built = _run("kvstore_supervised", scenario)
    records = built.net.sim.trace.records
    assert check_kv_consistency(records) == []
    counts = _counts(built)
    assert counts.get("kv.promote", 0) >= 2
    # The old primary stepped down when it met the new epoch.
    demoted = [
        rec["mid"] for rec in records if rec.category == "kv.demote"
    ]
    assert built.mid_of("replica0") in demoted


def test_amnesiac_reboot_rejoins_without_divergence():
    # The rebooted node re-runs the workload factory — claim_primary and
    # all — with empty state: the §3.5.2 amnesia case.  Its takeover
    # must pull the surviving log before claiming, never fork history.
    scenario = Scenario(
        "amnesia",
        (
            NodeCrash(200_000.0, role="replica0"),
            Reboot(1_500_000.0, role="replica0"),
        ),
    )
    built = _run("kvstore", scenario)
    records = built.net.sim.trace.records
    assert check_kv_consistency(records) == []
    summary = kv_summary(records)
    assert summary["ops_definitive"] == summary["ops_invoked"] == 30


@pytest.mark.parametrize("schedule", ["duplicate", "reorder"])
def test_kv_survives_duplication_and_reordering(schedule):
    result = run_cell("kvstore_supervised", schedule, seed=1)
    assert result.ok, result.to_dict()
    assert result.consistency_problems == []
    key = (
        "deliveries_duplicated" if schedule == "duplicate"
        else "deliveries_reordered"
    )
    # The window really replayed/held back traffic.
    assert result.faults[key] > 0
    assert result.kv["availability"] == 1.0


def test_duplicate_window_replays_kv_writes_at_most_once():
    # Direct scenario (not the registered schedule): aggressive
    # duplication across the whole run, checker must stay silent.
    scenario = Scenario(
        "dup_heavy",
        (DuplicateWindow(0.0, 20_000_000.0, probability=0.3),),
    )
    built = _run("kvstore", scenario)
    records = built.net.sim.trace.records
    assert built.net.faults.deliveries_duplicated > 0
    assert check_kv_consistency(records) == []


def test_reorder_window_does_not_reorder_committed_history():
    scenario = Scenario(
        "reorder_heavy",
        (ReorderWindow(0.0, 20_000_000.0, probability=0.3, extra_us=900.0),),
    )
    built = _run("kvstore", scenario)
    records = built.net.sim.trace.records
    assert built.net.faults.deliveries_reordered > 0
    assert check_kv_consistency(records) == []


def test_chaos_cell_reports_kv_summary_and_verdict():
    result = run_cell("kvstore_supervised", "primary_crash_load", seed=1)
    assert result.ok
    payload = result.to_dict()
    assert payload["consistency_problems"] == []
    assert payload["kv"]["ops_invoked"] == 30
    assert payload["kv"]["availability"] >= 0.9
    # Workloads without kv.* records keep an empty kv block.
    echo = run_cell("echo", "calm", seed=1)
    assert echo.to_dict()["kv"] == {}


def test_kv_bench_body_shape_and_verdicts():
    from repro.bench.kv import run_kv_bench

    body = run_kv_bench(seed=1)
    assert body["workload"] == "kvstore_supervised"
    assert set(body["schedules"]) == {
        "calm", "primary_crash_load", "partition_heal", "cluster_restart"
    }
    comparison = body["comparison"]
    assert comparison["all_consistent"] is True
    assert comparison["acknowledged_write_loss"] == 0
    assert comparison["failover_bounded"] is True
    assert comparison["failover_client_us"] > 0
    for cell in body["schedules"].values():
        assert cell["consistency_problems"] == []
        assert cell["availability"] > 0.9
