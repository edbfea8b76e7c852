"""The chaos matrix runner: (workload × schedule × seed) sweep.

Each *cell* builds a workload (:func:`repro.workloads.build_workload`),
applies a fault :class:`~repro.chaos.scenario.Scenario`, runs to a
horizon past the last fault plus grace, and is judged *while it runs*
by :class:`CellJudges`: record sinks (a ``HANDLERS`` table naming the
categories each reads, and a ``finish(...)``) that one
:class:`~repro.sim.tracing.SinkTable` merges into the one sink the
cell's tracer streams to, so no record outlives its dispatch (DESIGN.md
§14).  A real run's merged trace is replayed into the same judges
(:func:`repro.netreal.runner.judge_traces`), so both backends return
one :class:`CellResult` (DESIGN.md §19):

* the invariant checker (safety; a DELIVERED cell still open at the
  end is a leak unless its requester stopped waiting — one that died
  mid-transaction legitimately leaves the server holding it forever);
* the span builder, whose spans :mod:`repro.chaos.liveness` judges at
  the horizon together with live kernel state (every REQUEST outside
  the grace window reached a terminal status, no leaked timers/windows,
  no wedged connections, goodput and p99 within the schedule's bounds);
* the KV sink (linearizability verdict and operation accounting) and
  the recovery sink (failure detector, recovery counts, self-heal);
* under ``causal``, the causal engine (SODA010-014, DESIGN.md §21);
* fault-plan accounting (:func:`fault_counts`: what the schedule
  actually injected), folded into the report so a cell that injected
  nothing is visible.

Everything is deterministic: same (workload, schedule, seed) ⇒ the same
virtual-time run ⇒ an identical report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.causal import CausalSink, detect_deadlocks
from repro.analysis.invariants import InvariantChecker
from repro.chaos.scenario import (
    ClientDie,
    DiskFault,
    DuplicateWindow,
    LossWindow,
    NodeCrash,
    Partition,
    PowerLoss,
    Reboot,
    ReorderWindow,
    Scenario,
    TargetedDrop,
    ThunderingHerd,
)
from repro.chaos.liveness import (
    DegradationBounds,
    check_degradation,
    check_liveness,
)
from repro.core.config import KernelConfig
from repro.obs.spans import SpanBuilder
from repro.recovery.convergence import RecoverySink
from repro.replication.consistency import KvSink
from repro.sim.tracing import CostLedger, SinkTable
from repro.transport.adaptive import AdaptivePolicy, deltat_for_policy
from repro.transport.retransmit import RetransmitPolicy
from repro.workloads import WORKLOADS, WorkloadSpec, build_workload


def _server_role(spec: WorkloadSpec) -> str:
    return spec.roles[0].name


def _client_role(spec: WorkloadSpec) -> str:
    return spec.roles[-1].name


def _disk_roles(spec: WorkloadSpec) -> Tuple[str, ...]:
    """The roles the durability schedules target: every durable role
    (the KV replicas), or the server role on diskless workloads — where
    a power loss degenerates to crash + reboot."""
    roles = tuple(role.name for role in spec.roles if role.durable)
    return roles or (_server_role(spec),)


def _lossy(spec: WorkloadSpec) -> Scenario:
    # Opens at t=0 so even short workloads (echo finishes in ~100ms)
    # run their whole transaction stream through the noise.
    return Scenario(
        "lossy",
        (LossWindow(0.0, 2_000_000.0, loss=0.15, corruption=0.05),),
    )


def _partition(spec: WorkloadSpec) -> Scenario:
    # Starts at 20ms — inside every workload's request stream — and
    # lasts past retransmission exhaustion, so requesters both declare
    # the server dead AND see it heal.
    return Scenario(
        "partition",
        (
            Partition(
                20_000.0, 860_000.0, isolate=(_server_role(spec),)
            ),
        ),
    )


def _strike(spec: WorkloadSpec) -> Scenario:
    # Surgical frame kills: the very first REQUEST (hits every
    # workload), the 3rd ACCEPT reply, and the 2nd pure ACK — each
    # forces a distinct retransmission path.
    return Scenario(
        "strike",
        (
            TargetedDrop(0.0, ptype="request", skip=0),
            TargetedDrop(0.0, ptype="accept", skip=2),
            TargetedDrop(0.0, ptype="ack", skip=1),
        ),
    )


def _client_flap(spec: WorkloadSpec) -> Scenario:
    # DIE lands mid-transaction for every workload (even echo, whose
    # whole stream runs ~0.1-60ms); the reboot restarts the role.
    role = _client_role(spec)
    return Scenario(
        "client_flap",
        (
            ClientDie(25_000.0, role=role),
            Reboot(600_000.0, role=role),
        ),
    )


def _server_flap(spec: WorkloadSpec) -> Scenario:
    role = _server_role(spec)
    return Scenario(
        "server_flap",
        (
            ClientDie(22_000.0, role=role),
            Reboot(500_000.0, role=role),
        ),
    )


def _server_crash(spec: WorkloadSpec) -> Scenario:
    role = _server_role(spec)
    return Scenario(
        "server_crash",
        (
            NodeCrash(30_000.0, role=role),
            Reboot(1_200_000.0, role=role),
        ),
    )


def _calm(spec: WorkloadSpec) -> Scenario:
    # The fault-free control row: a healthy run must produce zero crash
    # reports and zero false suspicions (docs/RECOVERY.md).
    return Scenario("calm", ())


def _crash_idle(spec: WorkloadSpec) -> Scenario:
    # Crash-then-idle: the server dies and *nothing in the schedule*
    # brings it back.  Supervised workloads must self-heal through the
    # supervisor's BOOT/LOAD path; unsupervised ones must terminate
    # every pending span against the permanently-dead server.
    # t=15ms lands inside the supervised client's first exchange, so the
    # DIE leaves a DELIVERED-but-unACCEPTed record behind and the retry
    # shim's probe-proof path (arg=2) gets exercised, not just healing.
    return Scenario(
        "crash_idle", (ClientDie(15_000.0, role=_server_role(spec)),)
    )


def _crash_load(spec: WorkloadSpec) -> Scenario:
    # Power-fail the server node under request load; no scripted reboot
    # — recovery, if promised, is the supervisor's job.
    # t=334ms is inside a later exchange of the supervised client: a
    # power failure wipes the crashed-unaccepted memory with the rest of
    # the kernel, so the in-flight op must resolve as MAYBE (ambiguous),
    # never as a blind retry.
    return Scenario(
        "crash_load", (NodeCrash(334_000.0, role=_server_role(spec)),)
    )


def _sustained_loss(spec: WorkloadSpec) -> Scenario:
    # The degradation tentpole: a 30% loss *plateau* held for three
    # seconds.  Not a burst to survive but a steady state to serve
    # through — the schedule the adaptive-vs-static transport benchmark
    # (repro.bench.transport) runs under.
    return Scenario(
        "sustained_loss",
        (LossWindow(0.0, 3_000_000.0, loss=0.30),),
    )


def _thundering_herd(spec: WorkloadSpec) -> Scenario:
    # N clones of the client role hammer the one server from t=10ms;
    # exercises BUSY parking, the widened retry hints, and the kernel
    # overload controller's OVERLOAD shed path.
    return Scenario(
        "thundering_herd",
        (ThunderingHerd(10_000.0, role=_client_role(spec), clones=6),),
    )


def _duplicate(spec: WorkloadSpec) -> Scenario:
    # Frame replay: 15% of surviving deliveries arrive twice, the echo
    # 150µs behind the original — stale REQUESTs, ACCEPT replies, and
    # replication APPENDs all replayed after they were acted on.
    return Scenario(
        "duplicate",
        (DuplicateWindow(0.0, 2_500_000.0, probability=0.15),),
    )


def _reorder(spec: WorkloadSpec) -> Scenario:
    # Overtaking: 15% of deliveries held back 600µs so younger frames
    # pass them — out-of-order arrival with nothing actually lost.
    return Scenario(
        "reorder",
        (ReorderWindow(0.0, 2_500_000.0, probability=0.15, extra_us=600.0),),
    )


def _primary_crash_load(spec: WorkloadSpec) -> Scenario:
    # The KV failover headline: power-fail the first role (the initial
    # KV primary) under client load with *no scripted reboot* — a
    # supervised cluster must fail over, an unsupervised one must fail
    # every subsequent op definitively rather than lie.
    return Scenario(
        "primary_crash_load",
        (NodeCrash(200_000.0, role=_server_role(spec)),),
    )


def _backup_flap(spec: WorkloadSpec) -> Scenario:
    # Kill and reboot a *backup* (the second replica role when there is
    # one).  The primary keeps serving through the flap at quorum; the
    # rebooted backup comes back amnesiac and must anti-entropy catch up
    # before its CONFIRMs count again.
    roles = [role.name for role in spec.roles]
    role = roles[1] if len(roles) >= 3 else roles[-1]
    return Scenario(
        "backup_flap",
        (
            ClientDie(180_000.0, role=role),
            Reboot(900_000.0, role=role),
        ),
    )


def _partition_heal(spec: WorkloadSpec) -> Scenario:
    # Isolate the first role (the KV primary) long enough for the
    # supervisor to promote a replacement *during* the partition, then
    # heal: the stale primary resurfaces mid-epoch and must be fenced by
    # the first APPEND/CONFIRM it exchanges, not allowed to ack writes.
    return Scenario(
        "partition_heal",
        (
            Partition(
                120_000.0, 2_600_000.0, isolate=(_server_role(spec),)
            ),
        ),
    )


def _flap(spec: WorkloadSpec) -> Scenario:
    # Flapping node: die, get healed (supervisor), die again — forcing
    # two full supervision cycles.  For unsupervised workloads the
    # second DIE is a forgiving no-op on an already-dead client.
    role = _server_role(spec)
    return Scenario(
        "flap",
        (
            ClientDie(25_000.0, role=role),
            ClientDie(1_292_000.0, role=role),
        ),
    )


def _cluster_restart(spec: WorkloadSpec) -> Scenario:
    # The durability headline: power-fail EVERY disk-bearing role at
    # the same instant under load, then reboot them all.  No surviving
    # peer holds the state, so anti-entropy cannot repair anyone —
    # acknowledged writes come back only from local WAL + snapshots.
    return Scenario(
        "cluster_restart",
        (
            PowerLoss(
                900_000.0, roles=_disk_roles(spec),
                reboot_delay_us=500_000.0,
            ),
        ),
    )


def _cluster_power_loss(spec: WorkloadSpec) -> Scenario:
    # cluster_restart with the disks set to tear: each node's in-flight
    # unsynced write survives only as a prefix (ALICE-style torn
    # write), so every recovery must walk a damaged WAL tail.
    roles = _disk_roles(spec)
    torn = tuple(
        DiskFault(0.0, role=role, kind="torn_write") for role in roles
    )
    return Scenario(
        "cluster_power_loss",
        torn
        + (PowerLoss(900_000.0, roles=roles, reboot_delay_us=500_000.0),),
    )


def _torn_write_primary(spec: WorkloadSpec) -> Scenario:
    # Tear only the initial primary's disk, then power-fail it alone
    # mid-load: the cluster fails over while the old primary recovers
    # from a torn WAL and rejoins as a fenced backup.
    role = _disk_roles(spec)[0]
    return Scenario(
        "torn_write_primary",
        (
            DiskFault(0.0, role=role, kind="torn_write"),
            PowerLoss(700_000.0, roles=(role,), reboot_delay_us=500_000.0),
        ),
    )


def _bitrot_backup(spec: WorkloadSpec) -> Scenario:
    # Flip bits in a backup's *durable* WAL, then power-cycle it: the
    # CRC framing must detect the rot (truncating replay at the damage,
    # never deserializing garbage) and anti-entropy must repair the
    # re-joined replica from its peers.
    roles = _disk_roles(spec)
    role = roles[1] if len(roles) >= 2 else roles[0]
    return Scenario(
        "bitrot_backup",
        (
            DiskFault(1_000_000.0, role=role, kind="bitrot", count=4),
            PowerLoss(
                1_050_000.0, roles=(role,), reboot_delay_us=400_000.0
            ),
        ),
    )


#: Named schedule factories; each adapts to the workload's role names.
SCHEDULES: Dict[str, Callable[[WorkloadSpec], Scenario]] = {
    "lossy": _lossy,
    "partition": _partition,
    "strike": _strike,
    "client_flap": _client_flap,
    "server_flap": _server_flap,
    "server_crash": _server_crash,
    "calm": _calm,
    "crash_idle": _crash_idle,
    "crash_load": _crash_load,
    "flap": _flap,
    "sustained_loss": _sustained_loss,
    "thundering_herd": _thundering_herd,
    "duplicate": _duplicate,
    "reorder": _reorder,
    "primary_crash_load": _primary_crash_load,
    "backup_flap": _backup_flap,
    "partition_heal": _partition_heal,
    "cluster_restart": _cluster_restart,
    "cluster_power_loss": _cluster_power_loss,
    "torn_write_primary": _torn_write_primary,
    "bitrot_backup": _bitrot_backup,
}

#: The recovery schedules judged by the self-heal check (plus every
#: other schedule: the check runs on all cells of supervised workloads).
RECOVERY_SCHEDULES = ("crash_idle", "crash_load", "flap")

#: Per-schedule service-level bounds for the degradation verdict
#: (repro.chaos.liveness.check_degradation).  Degradation schedules get
#: real floors — "keep serving while faulted" — while crash/partition
#: schedules, whose *point* is failed transactions, keep only a token
#: floor (their correctness is judged by safety + liveness + self-heal).
DEGRADATION_BOUNDS: Dict[str, DegradationBounds] = {
    "calm": DegradationBounds(goodput_floor=0.95, p99_latency_us=2_000_000.0),
    "strike": DegradationBounds(goodput_floor=0.85, p99_latency_us=2_500_000.0),
    "lossy": DegradationBounds(goodput_floor=0.5, p99_latency_us=3_000_000.0),
    "sustained_loss": DegradationBounds(
        goodput_floor=0.4, p99_latency_us=3_000_000.0
    ),
    "thundering_herd": DegradationBounds(
        goodput_floor=0.5, p99_latency_us=3_000_000.0
    ),
    "partition": DegradationBounds(goodput_floor=0.0),
    "client_flap": DegradationBounds(goodput_floor=0.0),
    "server_flap": DegradationBounds(goodput_floor=0.0),
    "server_crash": DegradationBounds(goodput_floor=0.0),
    "crash_idle": DegradationBounds(goodput_floor=0.0),
    "crash_load": DegradationBounds(goodput_floor=0.0),
    "flap": DegradationBounds(goodput_floor=0.0),
    # Nothing is lost under duplication/reordering, so transactions all
    # complete — just a little late where a held-back frame forced a
    # retransmission round.
    "duplicate": DegradationBounds(
        goodput_floor=0.8, p99_latency_us=3_000_000.0
    ),
    "reorder": DegradationBounds(
        goodput_floor=0.7, p99_latency_us=3_000_000.0
    ),
    "primary_crash_load": DegradationBounds(goodput_floor=0.0),
    "backup_flap": DegradationBounds(goodput_floor=0.0),
    "partition_heal": DegradationBounds(goodput_floor=0.0),
    "cluster_restart": DegradationBounds(goodput_floor=0.0),
    "cluster_power_loss": DegradationBounds(goodput_floor=0.0),
    "torn_write_primary": DegradationBounds(goodput_floor=0.0),
    "bitrot_backup": DegradationBounds(goodput_floor=0.0),
}

#: Bounds applied to ad-hoc scenarios (shrinker reproducers).
DEFAULT_DEGRADATION_BOUNDS = DegradationBounds(goodput_floor=0.0)


def chaos_config(
    policy: Optional[RetransmitPolicy] = None,
) -> KernelConfig:
    """The kernel configuration chaos cells run under.

    The adaptive policy is the chaos/soak default (ISSUE 5); the static
    paper-faithful policy stays the default everywhere else.  Delta-t's
    ``R`` is harmonized with the policy's true retry window either way
    (the §5.2.2 consistency condition).
    """
    policy = policy if policy is not None else AdaptivePolicy()
    return KernelConfig(
        retransmit=policy, deltat=deltat_for_policy(policy)
    )


@dataclass
class CellResult:
    """One (workload, schedule, seed) cell's verdict."""

    workload: str
    schedule: str
    seed: int
    horizon_us: float
    invariant_violations: List[str] = field(default_factory=list)
    liveness_problems: List[str] = field(default_factory=list)
    selfheal_problems: List[str] = field(default_factory=list)
    degradation_problems: List[str] = field(default_factory=list)
    #: Causal verdicts (``run_cell(..., causal=True)``): SODA010-014
    #: race and deadlock diagnostics.
    causal_problems: List[str] = field(default_factory=list)
    #: KV linearizability verdicts (lost acked writes, stale reads,
    #: double-applied CAS...); empty for workloads without ``kv.*``
    #: records.
    consistency_problems: List[str] = field(default_factory=list)
    spans_by_status: Dict[str, int] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    recovery: Dict[str, object] = field(default_factory=dict)
    kv: Dict[str, object] = field(default_factory=dict)
    frames_sent: int = 0

    def problems(self) -> List[str]:
        """Every verdict line of all six columns, in ``to_dict`` order."""
        return (
            self.invariant_violations
            + self.liveness_problems
            + self.selfheal_problems
            + self.degradation_problems
            + self.causal_problems
            + self.consistency_problems
        )

    @property
    def ok(self) -> bool:
        return not self.problems()

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.workload, self.schedule, self.seed)

    def to_dict(self) -> Dict[str, object]:
        return {
            **asdict(self),
            "ok": self.ok,
            "spans_by_status": dict(sorted(self.spans_by_status.items())),
            "faults": dict(sorted(self.faults.items())),
        }


def make_schedule(name: str, spec: WorkloadSpec) -> Scenario:
    try:
        factory = SCHEDULES[name]
    except KeyError:
        raise KeyError(
            f"unknown schedule {name!r}; choose from "
            f"{', '.join(sorted(SCHEDULES))}"
        ) from None
    return factory(spec)


#: The bus fault plan's counters a cell reports.
_BUS_FAULTS = (
    "frames_lost", "frames_corrupted", "frames_scripted_drops",
    "deliveries_predicate_dropped", "deliveries_duplicated",
    "deliveries_reordered",
)


def fault_counts(net) -> Dict[str, int]:
    """What ``net``'s fault plans injected: the bus plan's counters, and
    every node disk plan's summed as ``disk_<counter>``."""
    counts = {name: getattr(net.faults, name) for name in _BUS_FAULTS}
    for node in net.nodes.values():
        plan = getattr(getattr(node, "disk", None), "plan", None)
        if plan is not None:
            for key, value in plan.counter_snapshot().items():
                counts[f"disk_{key}"] = counts.get(f"disk_{key}", 0) + value
    return counts


class CellJudges:
    """One cell's judges, on either backend, as one :attr:`table`: the
    invariant checker, span builder, KV sink, recovery sink and its
    failure detector, plus the causal engine under ``causal``.
    ``config`` is what the cell ran under: its retransmit policy bounds
    INV-DELTAT, its Delta-t packet lifetime the causal frame clocks.  A
    sim cell installs the table before its run, a real run replays its
    merged trace into it; :meth:`verdict` closes the judges once."""

    def __init__(self, config: KernelConfig, causal: bool = False) -> None:
        self.checker = InvariantChecker(policy=config.retransmit)
        self.spans, self.kv, self.recovery = (
            SpanBuilder(), KvSink(), RecoverySink()
        )
        self.causal = [CausalSink(config.deltat.mpl_us)] if causal else []
        self.table = SinkTable(
            self.checker, self.spans, self.kv, self.recovery,
            self.recovery.detector, *self.causal,
        )

    def verdict(
        self, workload: str, schedule: str, seed: int, horizon: float,
        ledger: Optional[CostLedger], liveness: Callable[[list], List[str]],
        selfheal: List[str], faults: Dict[str, int], frames_sent: int,
    ) -> CellResult:
        """The cell's :class:`CellResult`.  ``liveness(spans)`` is the
        backend's liveness verdict over the finished spans; the other
        arguments are what the backend read off its run."""
        violations = self.checker.finish(
            ledger=ledger, end_time=self.table.end_time
        )
        spans = self.spans.finish()
        summary = self.kv.summary()
        return CellResult(
            workload, schedule, seed, horizon,
            invariant_violations=[v.format() for v in violations],
            liveness_problems=liveness(spans),
            selfheal_problems=selfheal,
            degradation_problems=check_degradation(
                spans,
                horizon,
                DEGRADATION_BOUNDS.get(schedule, DEFAULT_DEGRADATION_BOUNDS),
            ),
            causal_problems=[
                diag.format()
                for sink in self.causal
                for diag in sink.finish() + detect_deadlocks(spans)
            ],
            consistency_problems=self.kv.finish(),
            recovery=self.recovery.finish(),
            kv=summary if summary["ops_invoked"] else {},
            spans_by_status=dict(Counter(span.status for span in spans)),
            faults=faults,
            frames_sent=frames_sent,
        )


def run_cell(
    workload: str,
    schedule: str,
    seed: int,
    scenario: Optional[Scenario] = None,
    policy: Optional[RetransmitPolicy] = None,
    causal: bool = False,
) -> CellResult:
    """Run one chaos cell; ``scenario`` overrides the named schedule
    (used by the shrinker and by checked-in reproducers), ``policy``
    overrides the adaptive default (used by the transport benchmark).
    ``causal`` adds the causal engine to the judges: the SODA010-014
    race/deadlock rules.

    The judges run live, as one :class:`SinkTable` on the tracer, and
    the trace is not retained.  The table comes off the tracer at the
    horizon, so the sinks' state is freed with this frame and not with
    the network's reference cycles.
    """
    built = build_workload(
        workload, seed=seed, config=chaos_config(policy), keep_trace=False
    )
    if scenario is None:
        scenario = make_schedule(schedule, built.spec)
    net = built.net
    judges = CellJudges(net.config, causal=causal)
    judges.table.install(net)
    horizon = scenario.run(built)
    net.sim.trace.remove_sink(judges.table.feed)
    return judges.verdict(
        workload, schedule, seed, horizon, net.ledger,
        liveness=lambda spans: check_liveness(net, spans=spans),
        selfheal=judges.recovery.self_heal(built, scenario.last_action_us),
        faults=fault_counts(net),
        frames_sent=net.bus.frames_sent,
    )


def matrix_cells(
    workloads: Optional[Sequence[str]] = None,
    schedules: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (1,),
) -> List[Tuple[str, str, int]]:
    """The deterministic cell enumeration of a sweep."""
    workload_names = list(workloads) if workloads else sorted(WORKLOADS)
    schedule_names = list(schedules) if schedules else sorted(SCHEDULES)
    return [
        (workload, schedule, seed)
        for workload in workload_names
        for schedule in schedule_names
        for seed in seeds
    ]


def _run_cell_packed(args: Tuple[str, str, int, bool]) -> CellResult:
    """Module-level trampoline so ProcessPoolExecutor can pickle it."""
    workload, schedule, seed, causal = args
    return run_cell(workload, schedule, seed, causal=causal)


def run_matrix(
    workloads: Optional[Sequence[str]] = None,
    schedules: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (1,),
    progress: Optional[Callable[[CellResult], None]] = None,
    causal: bool = False,
    parallel: Optional[int] = None,
) -> List[CellResult]:
    """Sweep the matrix; results come back in deterministic cell order.

    ``parallel=N`` farms cells out to N worker processes.  Cells are
    independent, seed-deterministic simulations, so the merged result
    list — and any JSON derived from it — is byte-identical to a serial
    sweep; only wall-clock changes.
    """
    cells = matrix_cells(workloads, schedules, seeds)
    results: List[CellResult] = []
    if parallel is not None and parallel > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(parallel, len(cells))
        packed = [(w, s, seed, causal) for w, s, seed in cells]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() yields in submission order: canonical enumeration
            # order, regardless of which worker finishes first.
            for result in pool.map(_run_cell_packed, packed):
                results.append(result)
                if progress is not None:
                    progress(result)
        return results
    for workload, schedule, seed in cells:
        result = run_cell(workload, schedule, seed, causal=causal)
        results.append(result)
        if progress is not None:
            progress(result)
    return results


def matrix_payload(
    results: Sequence[CellResult], seed: int
) -> Dict[str, object]:
    """The ``soda.bench/1`` report for a finished sweep."""
    from repro.obs.export import snapshot_payload

    failed = [r for r in results if not r.ok]
    body = {
        "cells": [r.to_dict() for r in results],
        "summary": {
            "total": len(results),
            "failed": len(failed),
            "failed_cells": sorted(
                f"{r.workload}/{r.schedule}/seed={r.seed}" for r in failed
            ),
        },
    }
    return snapshot_payload("chaos", body, meta={"seed": seed})
