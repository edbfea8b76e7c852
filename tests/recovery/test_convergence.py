"""The self-heal judgment and the recovery digest (repro.recovery.convergence)."""

from repro.workloads import build_workload
from repro.chaos.scenario import ClientDie, Scenario
from repro.recovery import SELF_HEAL_BOUND_US, check_self_heal, recovery_summary
from repro.sim.tracing import TraceRecord


def rec(time, category, **fields):
    return TraceRecord(time, category, fields)


def test_unsupervised_workload_is_exempt():
    built = build_workload("echo")
    built.net.run(until=built.spec.until_us)
    assert check_self_heal(built, 0.0) == []


def test_unhealed_crash_is_a_problem():
    # Kill the server and gag the supervisor's reboot path by pointing
    # its one service at a mid that never advertises — the detection
    # then has no matching restore and the bound expires.
    built = build_workload("supervised")
    supervisor = built.net.nodes[1].kernel.client.program
    service = supervisor.services[0]
    object.__setattr__(service, "mid", 9)  # frozen dataclass, test-only
    scenario = Scenario("kill", (ClientDie(15_000.0, role="server"),))
    scenario.run(built)
    problems = check_self_heal(built, scenario.last_action_us)
    assert problems, "a dead supervised service must fail the judgment"
    assert any("no live client" in p or "not restored" in p for p in problems)


def test_restore_outside_bound_is_a_problem():
    built = build_workload("supervised")
    built.net.run(until=100_000.0)  # healthy; we fake the trace below
    records = built.net.sim.trace.records
    records.append(rec(50_000.0, "recovery.crash_detected", mid=1, service_mid=0))
    records.append(
        rec(
            60_000.0 + 2 * SELF_HEAL_BOUND_US,
            "recovery.restored",
            mid=1,
            service_mid=0,
        )
    )
    problems = check_self_heal(built, last_fault_us=50_000.0)
    assert any("not restored within" in p for p in problems)
    # With a bound generous enough to cover the gap, the same trace passes.
    assert check_self_heal(
        built, last_fault_us=50_000.0, bound_us=3 * SELF_HEAL_BOUND_US
    ) == []


def test_recovery_summary_counts_and_epochs():
    summary = recovery_summary(
        [
            rec(0.0, "kernel.boot_handler", mid=0),
            rec(1.0, "kernel.boot_handler", mid=1),
            rec(4.0, "kernel.die", mid=0),
            rec(5.0, "kernel.crash_report", mid=1, peer=0),
            rec(6.0, "recovery.crash_detected", mid=1, service_mid=0),
            rec(7.0, "recovery.reboot", mid=1, service_mid=0),
            rec(8.0, "kernel.boot_handler", mid=0),
            rec(9.0, "recovery.restored", mid=1, service_mid=0),
            rec(10.0, "recovery.retry", mid=2, target=0),
            rec(11.0, "recovery.maybe", mid=2),
        ]
    )
    assert summary["counts"] == {
        "ambiguous_maybes": 1,
        "crash_reports": 1,
        "crashes_detected": 1,
        "escalations": 0,
        "reboots_issued": 1,
        "restored": 1,
        "retries": 1,
    }
    assert summary["epochs"] == {"0": 2, "1": 1}
    assert summary["false_suspicions"] == 0
