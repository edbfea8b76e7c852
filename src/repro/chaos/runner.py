"""The chaos matrix runner: (workload × schedule × seed) sweep.

Each *cell* builds a workload (:func:`repro.workloads.build_workload`),
applies a fault :class:`~repro.chaos.scenario.Scenario` (the named
ones are :data:`repro.chaos.scenario.SCHEDULES`: this module judges and
sweeps them, it does not define them), runs to a horizon past the last
fault plus grace, and is judged *while it runs* by :class:`CellJudges`:
record sinks (a ``HANDLERS`` table naming the categories each reads,
and a ``finish(...)``) that one :class:`~repro.sim.tracing.SinkTable`
merges into the one sink the cell's tracer streams to, so no record
outlives its dispatch (DESIGN.md §12.2).  A real run's merged trace is replayed into the same judges
(:func:`repro.netreal.runner.judge_traces`), so both backends return
one :class:`CellResult` (DESIGN.md §12.4):

* the invariant checker (safety; a DELIVERED cell still open at the
  end is a leak unless its requester stopped waiting — one that died
  mid-transaction legitimately leaves the server holding it forever);
* the span builder, whose spans :mod:`repro.chaos.liveness` judges at
  the horizon together with live kernel state (every REQUEST outside
  the grace window reached a terminal status, no leaked timers/windows,
  no wedged connections, goodput and p99 within the schedule's bounds);
* the KV sink (linearizability verdict and operation accounting) and
  the recovery sink (failure detector, recovery counts, self-heal);
* under ``causal``, the causal engine (SODA010-014, DESIGN.md §12.3);
* fault-plan accounting (:func:`~repro.chaos.scenario.fault_counts`:
  what the schedule actually injected), folded into the report so a
  cell that injected nothing is visible.

Everything is deterministic: same (workload, schedule, seed) ⇒ the same
virtual-time run ⇒ an identical report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.causal import CausalSink, detect_deadlocks
from repro.analysis.invariants import InvariantChecker
from repro.chaos.liveness import (
    DegradationBounds,
    check_degradation,
    check_liveness,
)
from repro.chaos.scenario import (
    SCHEDULES,
    Scenario,
    chaos_config,
    fault_counts,
    make_schedule,
)
from repro.core.config import KernelConfig
from repro.obs.spans import SpanBuilder
from repro.recovery.convergence import RecoverySink
from repro.replication.consistency import KvSink
from repro.sim.tracing import CostLedger, SinkTable
from repro.transport.retransmit import RetransmitPolicy
from repro.workloads import WORKLOADS, build_workload


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
    judges.table.uninstall(net)
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
