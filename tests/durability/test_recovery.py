"""End-to-end recovery: replicas reboot from disk instead of amnesia.

These run whole KV workloads through the sim, crash nodes (with and
without durable disks), and judge the merged trace with the same
consistency checker the chaos matrix uses.  The regression pinned
here: a full-cluster crash used to silently empty the store — every
acknowledged write vanished and no checker noticed.
"""

import pytest

from repro.workloads import build_workload
from repro.chaos.runner import run_cell
from repro.chaos.scenario import DiskFault, PowerLoss, Scenario
from repro.replication.consistency import check_kv_consistency

KV_ROLES = ("replica0", "replica1", "replica2")


def _run(workload, scenario=None, durable=True, seed=1):
    built = build_workload(workload, seed=seed, durable=durable)
    (scenario or Scenario("no_faults", ())).run(built)
    return built


def _records(built, category):
    return [r for r in built.net.sim.trace.records if r.category == category]


def _outcomes(built):
    return built.net.nodes[built.mid_of("client")].kernel.client.program.outcomes


def test_rebooted_replica_recovers_from_disk_not_amnesia():
    scenario = Scenario(
        name="one_power_loss",
        actions=(PowerLoss(at_us=2_000_000.0, roles=("replica1",)),),
    )
    built = _run("kvstore", scenario)
    recovers = _records(built, "kv.recover")
    from_disk = [r for r in recovers if r.fields.get("source") != "amnesia"]
    assert from_disk, "rebooted replica should have found its WAL"
    assert any(int(r.fields.get("entries", 0)) > 0 for r in from_disk)
    assert check_kv_consistency(built.net.sim.trace.records) == []


def test_full_cluster_power_loss_keeps_acknowledged_writes():
    """Every replica loses power at once; after reboot the cluster must
    still hold everything it acknowledged before the outage."""
    scenario = Scenario(
        name="blackout",
        actions=(PowerLoss(at_us=2_500_000.0, roles=KV_ROLES),),
    )
    built = _run("kvstore", scenario)
    assert check_kv_consistency(built.net.sim.trace.records) == []
    outcomes = _outcomes(built)
    assert outcomes and "ok" in set(outcomes.values())
    # Recovery actually replayed state: post-reboot applies re-cover
    # the pre-crash log rather than starting from zero.
    recovers = _records(built, "kv.recover")
    assert sum(int(r.fields.get("entries", 0)) for r in recovers) > 0


@pytest.mark.no_auto_invariants
def test_regression_amnesiac_cluster_crash_is_flagged_not_silent():
    """The bug this PR fixes: with diskless replicas, a full-cluster
    crash after acknowledged writes silently emptied the store.  The
    checker must now call that out explicitly — and stay silent when
    the same schedule runs over durable disks."""
    blackout = Scenario(
        name="late_blackout",
        actions=(PowerLoss(at_us=6_000_000.0, roles=KV_ROLES),),
    )
    amnesiac = _run("kvstore", blackout, durable=False)
    problems = check_kv_consistency(amnesiac.net.sim.trace.records)
    assert problems, "silent acknowledged-write loss went undetected"
    assert any("total state loss" in p for p in problems)

    durable = _run("kvstore", blackout, durable=True)
    assert check_kv_consistency(durable.net.sim.trace.records) == []


def test_torn_write_on_primary_recovers_cleanly():
    scenario = Scenario(
        name="torn_primary",
        actions=(
            DiskFault(at_us=0.0, role="replica0", kind="torn_write"),
            PowerLoss(at_us=2_000_000.0, roles=("replica0",)),
        ),
    )
    built = _run("kvstore", scenario)
    assert check_kv_consistency(built.net.sim.trace.records) == []


def test_bitrot_on_backup_detected_and_survived():
    result = run_cell("kvstore", "bitrot_backup", seed=1)
    assert result.ok, result.consistency_problems
    assert result.faults.get("disk_bits_flipped", 0) > 0


def test_cluster_power_loss_schedule_reports_zero_write_loss():
    """The acceptance cell: torn-write fault plans armed on every
    replica disk, whole-cluster power loss mid-load, zero acknowledged
    writes lost."""
    result = run_cell("kvstore", "cluster_power_loss", seed=1)
    assert result.ok, result.consistency_problems
    assert not any(
        "acknowledged write lost" in p for p in result.consistency_problems
    )
    assert result.faults.get("disk_torn_writes", 0) >= 1
