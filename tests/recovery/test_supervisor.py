"""Supervision: DISCOVER health polls, BOOT/LOAD reboots, escalation."""

import hashlib
import itertools
from collections import Counter

from repro.workloads import build_workload
from repro.chaos import ClientDie, NodeCrash, Scenario
from repro.chaos.runner import chaos_config, make_schedule
from repro.net import frame
from repro.recovery import RestartPolicy, SupervisorProgram, check_self_heal
from repro.replication.wire import KV_PATTERN
from repro.transport import packet


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


def _calm_cell(workload):
    built = build_workload(workload, seed=1, config=chaos_config())
    make_schedule("calm", built.spec).run(built)
    return built


def test_one_discover_per_distinct_pattern_per_poll():
    """The three KV replicas share ``REPL_PATTERN`` and every DISCOVER
    reply carries its MID (§3.4.4), so a calm poll is one broadcast of
    it plus the ``KV_PATTERN`` check.  Fails under the old per-service
    loop, which broadcast ``REPL_PATTERN`` once per replica."""
    built = _calm_cell("kvstore_supervised")
    (mid, supervisor), = (
        (mid, node.kernel.client.program)
        for mid, node in built.net.nodes.items()
        if isinstance(node.kernel.client.program, SupervisorProgram)
    )
    polls = []
    last = float("-inf")
    for rec in built.net.sim.trace.records:
        if rec.category != "kernel.request" or rec["mid"] != mid:
            continue
        # Within a poll DISCOVERs follow each other by one reply window;
        # between polls the supervisor computes for a poll interval.
        if rec.time - last >= supervisor.poll_interval_us:
            polls.append(Counter())
        polls[-1][rec["pattern"]] += 1
        last = rec.time
    patterns = {svc.pattern for svc in supervisor.services} | {KV_PATTERN}
    assert len(supervisor.services) == 3 and len(patterns) == 2
    assert len(polls) > built.net.sim.now / (2 * supervisor.poll_interval_us)
    assert all(poll == dict.fromkeys(patterns, 1) for poll in polls)


def test_takeover_survey_probes_every_replica_before_reading_any():
    """The survey's fingerprint probes go out together, so a write that
    commits while they are answered cannot make a backup look longer
    than the live primary: all three ``kernel.request`` records of a
    survey precede its first completion.  Fails under the sequential
    loop (one blocking ``b_signal`` after another)."""
    built = build_workload("kvstore_supervised", seed=1, config=chaos_config())
    make_schedule("primary_crash_load", built.spec).run(built)
    supervisor = next(
        mid for mid, node in built.net.nodes.items()
        if isinstance(node.kernel.client.program, SupervisorProgram)
    )
    replicas = built.net.nodes[supervisor].kernel.client.program.replica_mids
    records = built.net.sim.trace.records
    nominated = [
        r.time for r in records
        if r.category == "kv.takeover_sent" and r["mid"] == supervisor
    ]
    assert nominated
    # The probes are the supervisor's only REQUESTs aimed at one replica
    # (its DISCOVERs broadcast; a TAKEOVER follows a nomination).
    probes = [
        r for r in records
        if r.category == "kernel.request" and r["mid"] == supervisor
        and r["dst"] in replicas and r.time < nominated[0]
    ]
    assert sorted(r["dst"] for r in probes) == sorted(replicas)
    tids = {r["tid"] for r in probes}
    first_answer = min(
        r.time for r in records
        if r.category == "kernel.complete" and r["mid"] == supervisor
        and r["tid"] in tids
    )
    assert max(r.time for r in probes) < first_answer


#: sha256 of ``supervised`` / ``calm`` / 1's trace, one ``repr`` per line,
#: as it was while the supervisor broadcast once per service.
SUPERVISED_CALM_DIGEST = (
    "b4a47ac04d4d9efb15f6c4009f3ef0be7b530916fd6569b36f968f7d8feacd69"
)


def test_one_service_supervisor_trace_is_unchanged(monkeypatch):
    """With one service, one DISCOVER per distinct pattern is the old
    loop's one DISCOVER per service: the trace is the same record for
    record.  Fails if the poll's DISCOVER changes shape, e.g. loses its
    ``max_replies=8`` (a 16-byte reply buffer becomes 32)."""
    # Frame and packet ids are minted per process and traced.
    monkeypatch.setattr(frame, "_frame_ids", itertools.count(1))
    monkeypatch.setattr(packet, "_packet_ids", itertools.count(1))
    records = _calm_cell("supervised").net.sim.trace.records
    digest = hashlib.sha256()
    for rec in records:
        digest.update(f"{rec!r}\n".encode())
    assert (len(records), digest.hexdigest()) == (709, SUPERVISED_CALM_DIGEST)
