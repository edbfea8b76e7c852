"""The four workloads: inputs from a seed, a timed region, exact results.

Every workload is closed-loop with one client — SODA clients are
uniprogrammed and each waits for its reply — and single-threaded.
``run`` is the timed region (build + run + judge); everything it
returns is virtual and repeats exactly for a given seed and size.

``txn_soak`` and ``kv_steady`` build their own networks from public
classes, so one code path serves the untraced and the traced run.  The
two chaos workloads call ``run_cell`` when untraced — exactly what users
call — and :func:`staged_cell` when traced: a copy of the cell pipeline
assembled from the same public pieces so that it can record a span per
stage and read counters off the network ``run_cell`` throws away.  The
verdicts of both must be equal; the digest proves it on every cell.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import _surface as soda
from catalog import LEDGER

#: Paper §5.5: a blocking 0-word SIGNAL and a streamed, non-pipelined
#: 1000-word EXCHANGE, in virtual ms.
PAPER_B_SIGNAL_MS = 8.5
PAPER_EXCHANGE_1000_MS = 128.0
#: ``paper_rel_err`` beyond this is an incorrect run (today 0.0600).
PAPER_REL_ERR_LIMIT = 0.065

WORD_BYTES = 2

#: The registry workloads ``cell_sweep`` covers (everything but the KV
#: clusters, which get their own two workloads).
CELL_WORKLOADS = tuple(
    name for name in sorted(soda.WORKLOADS) if not name.startswith("kvstore")
)

#: (workload, schedule) pairs whose verdict is unclean on some seeds at
#: the seed commit (share of seeds 1..100): cancel/lossy 20 %,
#: cancel/sustained_loss 28 % (the single REQUEST is lost, so goodput 0/1
#: misses the floor), stream/sustained_loss 4 % (spans never terminal, or
#: p99 latency past its bound), busy/duplicate 1 % (SODA007, a BUSY retry
#: ahead of its hint).  Such a cell stays in the sweep and is counted
#: (``chaos.cells_unclean``, ``failed_share``) and listed in the output,
#: but it is the baseline, not a failed operation: the contract wants
#: ``failed`` to be 0 on a good run.  An unclean cell of any other pair
#: fails.
KNOWN_UNCLEAN = frozenset({
    ("cancel", "lossy"),
    ("cancel", "sustained_loss"),
    ("stream", "sustained_loss"),
    ("busy", "duplicate"),
})

KV_CLUSTER = "kvstore_supervised"
KV_REPLICAS = 3
KV_QUORUM = 2

#: ``kv_faults`` schedules, one cell each on seed S.
KV_FAULT_SCHEDULES = (
    "primary_crash_load",
    "cluster_restart",
    "cluster_power_loss",
    "partition_heal",
    "backup_flap",
    "torn_write_primary",
)
#: KV operations a schedule refuses by design, per cell: one comes back
#: ``unavail`` while ``partition_heal`` has the primary cut off, on every
#: seed.  Expected like the cells above: counted in ``failed_share``, not
#: in ``failed``; one more is a failure.
KV_REFUSED_BY_DESIGN = {"partition_heal": 1}

DEFINITIVE = ("ok", "cas_fail")


# ----------------------------------------------------------------------
# spans and results
# ----------------------------------------------------------------------


class Recorder:
    """Spans kept in memory until the run ends.

    A span is ``(id, trace, name, start, end, parent)``; ``trace`` names
    the cell or network the span belongs to.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.trace = ""
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, self.trace, name, start, end, parent)

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def slices(self) -> List[Tuple[str, float]]:
        """(name, duration) of the top-level spans, in order: the timed
        region cut into slices that repeat exactly from pass to pass."""
        return [(s[2], s[4] - s[3]) for s in self.spans if s[5] is None]


def run_sliced(
    net, rec: Recorder, done, slice_us: float, deadline_us: float
) -> None:
    """``Network.run`` in equal slices of virtual time until ``done()``,
    one top-level span per slice."""
    while not done() and net.now < deadline_us:
        with rec.span("run"):
            net.run(until=net.now + slice_us)


@dataclass
class Outcome:
    """What one timed region produced; all of it exact."""

    ops: int = 0
    failed: int = 0
    #: Operations that did not succeed and are not expected to at the
    #: seed commit (``KNOWN_UNCLEAN``, ``KV_REFUSED_BY_DESIGN``).
    expected_failed: int = 0
    #: Digested; identical whichever way the workload was run.
    verdicts: List[dict] = field(default_factory=list)
    unclean: List[str] = field(default_factory=list)
    #: Raw sums read off the networks (empty when ``run_cell`` hid them).
    counters: Counter = field(default_factory=Counter)
    #: Virtual ms from ``kv.invoke`` to ``kv.result``, every KV op.
    kv_latencies_ms: List[float] = field(default_factory=list)
    kv_failover_ms: List[float] = field(default_factory=list)
    acked_write_loss: int = 0
    paper_rel_err: float = 0.0
    #: ``kv_steady`` keeps its network for the untimed analysis passes.
    net: Optional[object] = None

    def digest(self) -> str:
        body = {"ops": self.ops, "failed": self.failed,
                "expected_failed": self.expected_failed,
                "verdicts": self.verdicts}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def harvest(net, counters: Counter) -> None:
    """Add one finished network's layer counters to ``counters``."""
    seen = net.sim.trace.counters
    counters["sim.events"] += net.sim.events_processed
    counters["sim.virt_us"] += net.sim.now
    counters["net.frames"] += net.bus.frames_sent
    counters["net.wire_bytes"] += net.bus.bytes_sent
    counters["net.bus_busy_us"] += net.bus.busy_time_us
    plan = net.faults
    counters["net.frames_dropped"] += (
        plan.frames_lost + plan.frames_corrupted
        + plan.frames_scripted_drops + plan.deliveries_predicate_dropped
    )
    counters["transport.retransmits"] += seen["conn.retransmit"]
    counters["transport.spurious_retransmits"] += (
        seen["conn.spurious_retransmit"]
    )
    counters["core.requests"] += seen["kernel.request"]
    counters["replication.entries_applied"] += seen["kv.apply"]
    counters["replication.promotions"] += seen["kv.promote"]
    counters["replication.sync_rounds"] += seen["kv.sync"]
    counters["recovery.crashes_detected"] += seen["recovery.crash_detected"]
    counters["recovery.reboots_issued"] += seen["recovery.reboot"]
    counters["obs.trace_records"] += len(net.sim.trace.records)
    for node in net.nodes.values():
        counters["core.requests_retained"] += len(node.kernel.requests)
        counters["core.delivered_retained"] += len(node.kernel.delivered)
        client = node.kernel.client
        storage = getattr(getattr(client, "program", None), "storage", None)
        if storage is not None:
            counters["durability.appends"] += storage.appends
            counters["durability.syncs"] += storage.syncs
            counters["durability.snapshots"] += storage.snapshots
        disk_plan = getattr(node.disk, "plan", None)
        if disk_plan is not None:
            counters["durability.faults_landed"] += sum(
                disk_plan.counter_snapshot().values()
            )
    for category in LEDGER:
        counters[f"model.{category}"] += net.ledger.get(category)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank (so the value stays exact); 0 with no samples."""
    return soda.percentile(values, q) if values else 0.0


def _acked_write_loss(problems: List[str]) -> int:
    return sum(
        1 for p in problems
        if p.startswith("lost acknowledged")
        or p.startswith("acknowledged write lost")
    )


def _kv_trace_metrics(records, outcome: Outcome) -> None:
    """Commit latencies and failover time out of one KV run's trace.

    Failover is kv-bench's definition: the first ``kernel.crash`` of a
    node that had been promoted, to the next definitive ``kv.result``.
    """
    primaries = set()
    crash_at: Optional[float] = None
    recovered = False
    for rec in records:
        category = rec.category
        if category == "kv.result":
            outcome.kv_latencies_ms.append(
                (rec.time - rec["invoked_at"]) / 1000.0
            )
            if (
                crash_at is not None
                and not recovered
                and rec.time > crash_at
                and rec["status"] in DEFINITIVE
            ):
                recovered = True
                outcome.kv_failover_ms.append((rec.time - crash_at) / 1000.0)
        elif category == "kv.promote":
            primaries.add(rec["mid"])
        elif category == "kernel.crash":
            if crash_at is None and rec["mid"] in primaries:
                crash_at = rec.time


# ----------------------------------------------------------------------
# txn_soak
# ----------------------------------------------------------------------


def txn_soak_inputs(seed: int, seconds: float) -> dict:
    return {
        "seed": seed,
        "signals": max(4, round(360 * seconds)),
        "exchanges": max(8, round(180 * seconds)),
    }


def _soak_network(seed: int, reply_bytes: int, client):
    net = soda.Network(
        seed=seed,
        config=soda.KernelConfig(pipelined=False),
        keep_trace=False,
    )
    net.add_node(program=soda.AcceptingServer(reply_bytes=reply_bytes))
    net.add_node(program=client, boot_at_us=100.0)
    return net


def txn_soak_run(inputs: dict, rec: Recorder) -> Outcome:
    outcome = Outcome()
    n_sig, n_exch = inputs["signals"], inputs["exchanges"]
    size = 1000 * WORD_BYTES

    rec.trace = "b_signal"
    with rec.span("build"):
        signaler = soda.BlockingSignaler(total=n_sig)
        sig_net = _soak_network(inputs["seed"], 0, signaler)
    run_sliced(
        sig_net, rec, lambda: len(signaler.call_times_us) >= n_sig,
        slice_us=250_000.0, deadline_us=n_sig * 1_000_000.0,
    )

    rec.trace = "exchange_1000"
    with rec.span("build"):
        streamer = soda.StreamingRequester(size, size, total=n_exch)
        exch_net = _soak_network(inputs["seed"] + 1, size, streamer)
    run_sliced(
        exch_net, rec, lambda: len(streamer.marks) >= n_exch,
        slice_us=1_000_000.0, deadline_us=n_exch * 10_000_000.0,
    )

    with rec.span("judge"):
        calls = signaler.call_times_us
        marks = [t for t, _ in streamer.marks]
        outcome.ops = n_sig + n_exch
        outcome.failed = outcome.ops - len(calls) - len(marks)
        for net in (sig_net, exch_net):
            harvest(net, outcome.counters)
        verdict = {"counters": dict(sorted(outcome.counters.items()))}
        outcome.verdicts.append(verdict)
        if outcome.failed:
            outcome.paper_rel_err = 1.0  # nothing to compare: as wrong as can be
            return outcome
        # Steady state: skip the cold-connection transactions, as the
        # paper tables (repro.bench.perf_tables) do.
        steady_calls = calls[2:]
        signal_ms = sum(steady_calls) / len(steady_calls) / 1000.0
        exchange_ms = (marks[-1] - marks[5]) / (len(marks) - 6) / 1000.0
        outcome.paper_rel_err = max(
            abs(signal_ms - PAPER_B_SIGNAL_MS) / PAPER_B_SIGNAL_MS,
            abs(exchange_ms - PAPER_EXCHANGE_1000_MS) / PAPER_EXCHANGE_1000_MS,
        )
        verdict.update(
            b_signal_ms=signal_ms,
            b_signal_min_us=min(calls),
            b_signal_max_us=max(calls),
            exchange_1000_ms=exchange_ms,
            exchange_done_us=marks[-1],
        )
    return outcome


# ----------------------------------------------------------------------
# the chaos cell, staged
# ----------------------------------------------------------------------


def staged_cell(
    workload: str, schedule: str, seed: int, rec: Recorder, outcome: Outcome
) -> dict:
    """``run_cell`` from its public pieces, one span per stage.

    Must return what ``run_cell(workload, schedule, seed).to_dict()``
    returns; the smoke test and every traced run check that it does.
    """
    rec.trace = f"{workload}/{schedule}/{seed}"
    with rec.span("cell"):
        with rec.span("build"):
            built = soda.build_workload(
                workload, seed=seed, config=soda.chaos_config()
            )
            scenario = soda.make_schedule(schedule, built.spec)
            scenario.apply(built)
        net = built.net
        horizon = max(
            built.spec.until_us, scenario.last_action_us + 2 * soda.GRACE_US
        )
        with rec.span("run"):
            net.run(until=horizon)
        records = net.sim.trace.records
        with rec.span("judge"):
            with rec.span("analysis.check_network"):
                violations = soda.check_network(net, strict_completion=False)
            with rec.span("obs.build_spans"):
                spans = soda.build_spans(records)
            with rec.span("chaos.liveness"):
                problems = soda.check_liveness(net, spans=spans)
                selfheal = soda.check_self_heal(
                    built, scenario.last_action_us
                )
                degradation = soda.check_degradation(
                    spans,
                    horizon,
                    soda.DEGRADATION_BOUNDS.get(
                        schedule, soda.DEFAULT_DEGRADATION_BOUNDS
                    ),
                )
            with rec.span("analysis.kv_consistency"):
                consistency = soda.check_kv_consistency(records)
                summary = soda.kv_summary(records)
            with rec.span("recovery.summary"):
                recovery = soda.recovery_summary(records)
            by_status = Counter(span.status for span in spans)
            plan = net.faults
            faults = {
                "frames_lost": plan.frames_lost,
                "frames_corrupted": plan.frames_corrupted,
                "frames_scripted_drops": plan.frames_scripted_drops,
                "deliveries_predicate_dropped": (
                    plan.deliveries_predicate_dropped
                ),
                "deliveries_duplicated": plan.deliveries_duplicated,
                "deliveries_reordered": plan.deliveries_reordered,
            }
            for node in net.nodes.values():
                disk_plan = getattr(node.disk, "plan", None)
                if disk_plan is None:
                    continue
                for key, value in disk_plan.counter_snapshot().items():
                    faults[f"disk_{key}"] = (
                        faults.get(f"disk_{key}", 0) + value
                    )
            verdict = soda.CellResult(
                workload=workload,
                schedule=schedule,
                seed=seed,
                horizon_us=horizon,
                invariant_violations=[v.format() for v in violations],
                liveness_problems=problems,
                selfheal_problems=selfheal,
                degradation_problems=degradation,
                consistency_problems=consistency,
                recovery=recovery,
                kv=summary if summary["ops_invoked"] else {},
                spans_by_status=by_status,
                faults=faults,
                frames_sent=net.bus.frames_sent,
            ).to_dict()
    # Outside the cell span: what only the traced run wants.
    harvest(net, outcome.counters)
    outcome.counters["obs.spans"] += len(spans)
    outcome.counters["recovery.false_suspicions"] += (
        recovery["false_suspicions"]
    )
    if summary["ops_invoked"]:
        _kv_trace_metrics(records, outcome)
    return verdict


def _run_cells(
    cells: List[Tuple[str, str, int]], rec: Recorder, staged: bool,
    kv_ops: bool,
) -> Outcome:
    """Run chaos cells; an op is a cell, or a KV operation if ``kv_ops``."""
    outcome = Outcome()
    for workload, schedule, seed in cells:
        if staged:
            verdict = staged_cell(workload, schedule, seed, rec, outcome)
        else:
            rec.trace = f"{workload}/{schedule}/{seed}"
            with rec.span("cell"):
                verdict = soda.run_cell(workload, schedule, seed).to_dict()
        outcome.verdicts.append(verdict)
        outcome.counters["chaos.cells"] += 1
        outcome.acked_write_loss += _acked_write_loss(
            verdict["consistency_problems"]
        )
        ops = verdict["kv"]["ops_invoked"] if kv_ops else 1
        outcome.ops += ops
        if not verdict["ok"]:
            outcome.counters["chaos.cells_unclean"] += 1
            outcome.unclean.append(f"{workload}/{schedule}/{seed}")
            if (workload, schedule) in KNOWN_UNCLEAN:
                outcome.expected_failed += ops
            else:
                outcome.failed += ops
        elif kv_ops:
            refused = ops - verdict["kv"]["ops_definitive"]
            expected = min(refused, KV_REFUSED_BY_DESIGN.get(schedule, 0))
            outcome.expected_failed += expected
            outcome.failed += refused - expected
    return outcome


def cell_sweep_inputs(seed: int, seconds: float) -> dict:
    pairs = [
        (workload, schedule)
        for workload in CELL_WORKLOADS
        for schedule in sorted(soda.SCHEDULES)
    ]
    wanted = max(1, round(50 * seconds))
    rows = round(wanted / len(pairs))
    if rows:  # whole rows of the matrix: every pair on seeds S..S+rows-1
        cells = [
            (workload, schedule, seed + i)
            for i in range(rows)
            for workload, schedule in pairs
        ]
    else:  # a short run takes an even sample of one row, not its start
        cells = [
            (*pairs[k * len(pairs) // wanted], seed) for k in range(wanted)
        ]
    return {"cells": cells}


def cell_sweep_run(inputs: dict, rec: Recorder, staged: bool) -> Outcome:
    return _run_cells(inputs["cells"], rec, staged, kv_ops=False)


def kv_faults_inputs(seed: int, seconds: float) -> dict:
    wanted = max(1, round(0.6 * seconds))
    n = len(KV_FAULT_SCHEDULES)
    return {
        "cells": [
            (KV_CLUSTER, KV_FAULT_SCHEDULES[k % n], seed + k // n)
            for k in range(wanted)
        ]
    }


def kv_faults_run(inputs: dict, rec: Recorder, staged: bool) -> Outcome:
    return _run_cells(inputs["cells"], rec, staged, kv_ops=True)


# ----------------------------------------------------------------------
# kv_steady
# ----------------------------------------------------------------------


def kv_steady_inputs(seed: int, seconds: float) -> dict:
    return {"seed": seed, "ops": max(6, round(24 * seconds))}


def _replica(index: int, claim_primary: bool = False):
    return soda.KvReplica(
        index=index,
        peer_mids=tuple(i for i in range(KV_REPLICAS) if i != index),
        quorum=KV_QUORUM,
        claim_primary=claim_primary,
    )


def _kv_cluster(seed: int, client):
    """The ``kvstore_supervised`` cluster (same shape, boot times and
    disk seeds as the registry's) around a client of our own size."""
    net = soda.Network(seed=seed, config=soda.chaos_config())
    for i in range(KV_REPLICAS):
        node = net.add_node(
            program=_replica(i, claim_primary=(i == 0)),
            name=f"replica{i}",
            boot_at_us=20.0 * i,
        )
        node.disk = soda.FaultDisk(
            soda.SimDisk(ledger=net.ledger),
            soda.DiskFaultPlan(seed=100 + i),
        )
    supervisor = soda.KvFailoverSupervisor(
        services=tuple(
            soda.SupervisedService(
                name=f"replica{i}",
                mid=i,
                pattern=soda.REPL_PATTERN,
                image=soda.ProgramImage(
                    f"kv-replica-{i}", (lambda i=i: _replica(i)),
                    size_bytes=2048,
                ),
            )
            for i in range(KV_REPLICAS)
        ),
        replica_mids=tuple(range(KV_REPLICAS)),
        quorum=KV_QUORUM,
    )
    net.add_node(program=supervisor, name="supervisor", boot_at_us=60.0)
    net.add_node(program=client, name="client", boot_at_us=150.0)
    return net


def kv_steady_run(inputs: dict, rec: Recorder) -> Outcome:
    outcome = Outcome()
    total = inputs["ops"]
    rec.trace = "kv_steady"
    with rec.span("build"):
        client = soda.KvClient(total=total, gap_us=120_000.0)
        net = _kv_cluster(inputs["seed"], client)
    run_sliced(
        net, rec, lambda: len(client.outcomes) >= total,
        slice_us=250_000.0, deadline_us=total * 10_000_000.0,
    )
    done = len(client.outcomes) >= total
    records = net.sim.trace.records
    with rec.span("judge"):
        with rec.span("analysis.check_network"):
            violations = soda.check_network(net, strict_completion=False)
        with rec.span("obs.build_spans"):
            spans = soda.build_spans(records)
        with rec.span("chaos.liveness"):
            liveness = soda.check_liveness(net, spans=spans)
        with rec.span("analysis.kv_consistency"):
            consistency = soda.check_kv_consistency(records)
            summary = soda.kv_summary(records)
    named = violations or liveness or consistency
    outcome.ops = total
    outcome.failed = (
        total if named or not done
        else total - sum(
            1 for status in client.outcomes.values() if status in DEFINITIVE
        )
    )
    outcome.acked_write_loss = _acked_write_loss(consistency)
    if named:
        outcome.unclean.append("kv_steady")
    _kv_trace_metrics(records, outcome)
    harvest(net, outcome.counters)
    outcome.counters["obs.spans"] = len(spans)
    latencies = outcome.kv_latencies_ms
    outcome.verdicts.append({
        "invariant_violations": [v.format() for v in violations],
        "liveness_problems": liveness,
        "consistency_problems": consistency,
        "kv": summary,
        "commit_p50_ms": percentile(latencies, 0.50),
        "commit_p95_ms": percentile(latencies, 0.95),
        "commit_max_ms": max(latencies, default=0.0),
        "counters": dict(sorted(outcome.counters.items())),
    })
    outcome.net = net
    return outcome


def analysis_passes(outcome: Outcome, rec: Recorder) -> None:
    """Untimed: the passes ``run_cell`` does not run, over the trace a
    workload kept (``kv_steady``), each under its own span."""
    net = outcome.net
    if net is None:
        return
    records = net.sim.trace.records
    with rec.span("analysis.check_stream"):
        soda.check_stream(
            records, network=net, strict_completion=False, ledger=net.ledger
        )
    with rec.span("analysis.causal_order"):
        soda.build_causal_order(records)
    outcome.counters["recovery.false_suspicions"] += (
        soda.recovery_summary(records)["false_suspicions"]
    )


def bare_events_per_s(events: int = 200_000) -> float:
    """Chained no-op events through a bare ``Simulator``: the ceiling
    ``sim.rate_vs_bare`` compares every workload's event rate against."""
    sim = soda.Simulator(seed=0, keep_trace=False)
    left = [events]

    def hop() -> None:
        left[0] -= 1
        if left[0] > 0:
            sim.schedule(1.0, hop)

    sim.schedule(0.0, hop)
    start = time.perf_counter()
    processed = sim.run(max_events=events + 1)
    return processed / (time.perf_counter() - start)


#: name -> (inputs from (seed, seconds), timed region, owns its networks).
#: A workload that owns its networks is ``run(inputs, rec)`` and reads
#: counters in the untraced run too; the ``run_cell`` ones are
#: ``run(inputs, rec, staged)`` and need the staged run for them.
REGISTRY = {
    "txn_soak": (txn_soak_inputs, txn_soak_run, True),
    "cell_sweep": (cell_sweep_inputs, cell_sweep_run, False),
    "kv_steady": (kv_steady_inputs, kv_steady_run, True),
    "kv_faults": (kv_faults_inputs, kv_faults_run, False),
}
