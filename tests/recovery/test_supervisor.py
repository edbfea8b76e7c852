"""Supervision: DISCOVER health polls, BOOT/LOAD reboots, escalation."""

from repro.analysis.workloads import build_workload
from repro.chaos import ClientDie, NodeCrash, Scenario
from repro.recovery import RestartPolicy, SupervisorProgram, check_self_heal


def run_supervised(actions, policy=None):
    built = build_workload("supervised")
    if policy is not None:
        supervisor = built.net.nodes[1].kernel.client.program
        assert isinstance(supervisor, SupervisorProgram)
        supervisor.policy = policy
    scenario = Scenario("scripted", tuple(actions))
    scenario.run(built)
    return built, scenario


def supervisor_of(built) -> SupervisorProgram:
    return built.net.nodes[1].kernel.client.program


def test_die_is_detected_and_rebooted():
    built, scenario = run_supervised([ClientDie(15_000.0, role="server")])
    trace = built.net.sim.trace
    assert trace.count("recovery.crash_detected") == 1
    assert trace.count("recovery.reboot") >= 1
    assert trace.count("recovery.restored") >= 1
    assert trace.count("recovery.escalated") == 0
    # The healed service is advertised again at the horizon.
    assert check_self_heal(built, scenario.last_action_us) == []
    run = supervisor_of(built).runtime["server"]
    assert run.crashes_detected == 1
    assert run.reboots >= 1
    assert not run.down


def test_power_failure_is_detected_and_rebooted():
    # A NodeCrash loses the whole kernel; the node re-advertises its boot
    # pattern after the Delta-t quiet period and the supervisor rebuilds
    # the service from its ProgramImage.
    built, scenario = run_supervised([NodeCrash(334_000.0, role="server")])
    trace = built.net.sim.trace
    assert trace.count("kernel.crash") == 1
    assert trace.count("recovery.reboot") >= 1
    assert trace.count("recovery.restored") >= 1
    assert check_self_heal(built, scenario.last_action_us) == []


def test_restore_ordering_detect_then_reboot_then_restore():
    built, _ = run_supervised([ClientDie(15_000.0, role="server")])
    times = {}
    for record in built.net.sim.trace.records:
        if record.category in (
            "recovery.suspect",
            "recovery.crash_detected",
            "recovery.reboot",
            "recovery.restored",
        ):
            times.setdefault(record.category, record.time)
    assert (
        times["recovery.suspect"]
        <= times["recovery.crash_detected"]
        <= times["recovery.reboot"]
        <= times["recovery.restored"]
    )


def test_exhausted_restart_budget_escalates():
    # One restart allowed: the second crash exhausts the budget and the
    # supervisor gives the service up (and the self-heal judgment calls
    # that a failure — a supervised service must not stay down).
    built, scenario = run_supervised(
        [
            ClientDie(15_000.0, role="server"),
            ClientDie(2_500_000.0, role="server"),
        ],
        policy=RestartPolicy(max_restarts=1),
    )
    trace = built.net.sim.trace
    assert trace.count("recovery.escalated") == 1
    run = supervisor_of(built).runtime["server"]
    assert run.escalated
    assert run.reboots == 1  # the budget, fully spent
    problems = check_self_heal(built, scenario.last_action_us)
    assert any("escalated" in p for p in problems)
    # After escalation the supervisor stops polling the service: no
    # reboot attempts follow the escalation record.
    escalated_at = next(
        r.time
        for r in trace.records
        if r.category == "recovery.escalated"
    )
    late_attempts = [
        r
        for r in trace.records
        if r.category == "recovery.reboot_attempt" and r.time > escalated_at
    ]
    assert late_attempts == []


def test_single_missed_poll_does_not_reboot():
    # Fault-free run: the supervisor never suspects, never reboots.
    built, scenario = run_supervised([])
    trace = built.net.sim.trace
    assert trace.count("recovery.suspect") == 0
    assert trace.count("recovery.crash_detected") == 0
    assert trace.count("recovery.reboot_attempt") == 0
    assert check_self_heal(built, scenario.last_action_us) == []
