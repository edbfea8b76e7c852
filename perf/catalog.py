"""The benchmark's catalogue: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; the smoke test keeps the two equal.

Two kinds of number, never mixed.  ``host`` metrics are wall-clock (or
memory) on this machine and carry run-to-run noise.  ``virtual``
metrics come from the seeded simulator and repeat exactly: a change
that claims only host speed must leave every one of them, and the
``virt_digest`` built from them, unchanged.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

#: What one run measures for, in seconds; workload sizes scale with it.
RUN_SECONDS = 10

#: The packages a profile's self time is folded into.  ``other`` is the
#: stdlib, builtins, the ``repro.bench`` load programs and ``perf/``.
PACKAGES = (
    "sim", "net", "transport", "core", "sodal", "recovery",
    "replication", "durability", "chaos", "obs", "analysis", "other",
)

#: Packages no workload exercises; listed so nobody reads their absence
#: from the profile as "free".
UNMEASURED = ("apps", "facilities", "extensions", "baselines", "netreal")

#: The modelled 1984 cost categories (``CostLedger.CATEGORIES``).
LEDGER = (
    "protocol", "connection_timers", "retransmit_timers", "context_switch",
    "transmission", "client_overhead", "disk_io",
)

WORKLOADS = (
    ("txn_soak", "smallest and largest message on the bare sim-net-transport-"
     "core-sodal path, untraced, no faults: per-packet cost and "
     "history-proportional kernel state show undiluted"),
    ("cell_sweep", "hundreds of short-lived traced chaos cells: per-cell fixed "
     "cost (build, idle polling, five judging passes) dominates and no "
     "network lives long enough for history state to matter"),
    ("kv_steady", "one long-lived replicated durable KV cluster in steady "
     "state: quorum commit, fsync barriers, snapshots and heartbeat traffic "
     "under a trace big enough to time each analysis pass"),
    ("kv_faults", "the same replication/durability/recovery layers under "
     "crash, restart, power loss, partition, flap and a torn WAL: vote, "
     "replay, anti-entropy, where a faster commit path could cost recovery "
     "or safety"),
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    kind: str  # "host" | "virtual"
    meaning: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change is rejected; ``None`` on per-layer metrics.
    bound: Optional[float] = None


END_TO_END = (
    Metric("setup_s", "s", "lower", "host",
           "child start to first timed call (interpreter start, import "
           "repro, make inputs), fastest of nine children", 0.25),
    Metric("wall_s", "s", "lower", "host",
           "untraced wall time of the timed region (build + run + judge): "
           "per slice the fastest of three passes, summed", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "ru_maxrss of the child that ran the timed region", 0.10),
)


def _per_layer() -> List[Metric]:
    out: List[Metric] = []

    def add(name, unit, better, kind, meaning):
        out.append(Metric(name, unit, better, kind, meaning))

    for pkg in PACKAGES:
        add(f"{pkg}.self_s", "s", "lower", "host",
            f"profile self time in repro.{pkg}" if pkg != "other"
            else "profile self time outside the packages above")
        add(f"{pkg}.self_share", "ratio", "lower", "host",
            f"{pkg}.self_s over the profile's total self time")
    add("trace.top_fn_share", "ratio", "lower", "host",
        "largest single function's share of self time")
    add("trace.overhead_ratio", "ratio", "lower", "host",
        "profiled wall over untraced wall_s")
    add("trace.staged_ratio", "ratio", "lower", "host",
        "staged-pipeline wall over untraced wall_s (1 where perf owns the run)")

    add("sim.events", "count", "lower", "virtual", "events processed")
    add("sim.events_per_s", "1/s", "higher", "host", "events over run wall")
    add("sim.virt_us_per_wall_us", "ratio", "higher", "host",
        "virtual time simulated per unit of run wall time")
    add("sim.bare_events_per_s", "1/s", "higher", "host",
        "200k chained no-op events through a bare Simulator")
    add("sim.rate_vs_bare", "ratio", "higher", "host",
        "sim.events_per_s over sim.bare_events_per_s (host-independent)")

    add("core.requests_retained", "count", "lower", "virtual",
        "sum of len(kernel.requests) over nodes at end of run")
    add("core.delivered_retained", "count", "lower", "virtual",
        "sum of len(kernel.delivered) over nodes at end of run")
    add("core.requests_retained_per_op", "ratio", "lower", "virtual",
        "both of the above per operation")

    add("net.frames", "count", "lower", "virtual", "frames put on the bus")
    add("net.frames_per_op", "ratio", "lower", "virtual", "frames per op")
    add("net.wire_bytes", "count", "lower", "virtual", "bytes on the bus")
    add("net.bus_busy_share", "ratio", "lower", "virtual",
        "bus busy time over virtual time simulated")
    add("net.frames_dropped", "count", "lower", "virtual",
        "frames or deliveries the fault plan lost, corrupted or dropped")
    add("transport.retransmits", "count", "lower", "virtual",
        "conn.retransmit records")
    add("transport.spurious_retransmits", "count", "lower", "virtual",
        "retransmissions an ACK later proved needless")
    add("transport.retransmit_share", "ratio", "lower", "virtual",
        "retransmits over frames")

    add("replication.requests_per_op", "ratio", "lower", "virtual",
        "kernel REQUESTs per KV op (heartbeats and probes included)")
    add("replication.entries_applied", "count", "lower", "virtual",
        "kv.apply records")
    add("replication.promotions", "count", "lower", "virtual",
        "kv.promote records (one per cluster is cold boot)")
    add("replication.sync_rounds", "count", "lower", "virtual",
        "kv.sync records (backup appended from its primary)")
    add("durability.appends", "count", "lower", "virtual",
        "WAL appends by replicas alive at the end, since their last boot")
    add("durability.syncs", "count", "lower", "virtual",
        "fsync barriers, same scope")
    add("durability.syncs_per_commit", "ratio", "lower", "virtual",
        "durability.syncs over replication.entries_applied")
    add("durability.snapshots", "count", "lower", "virtual",
        "snapshots installed, same scope")
    add("durability.disk_io_virt_us", "virt_us", "lower", "virtual",
        "modelled disk time charged to the ledger")
    add("durability.faults_landed", "count", "higher", "virtual",
        "torn writes, lied fsyncs, flipped bits and full-disk rejects")
    add("recovery.crashes_detected", "count", "lower", "virtual",
        "recovery.crash_detected records")
    add("recovery.reboots_issued", "count", "lower", "virtual",
        "recovery.reboot records")
    add("recovery.false_suspicions", "count", "lower", "virtual",
        "suspicions of a node that had not crashed")

    add("harness.build_s", "s", "lower", "host", "building networks")
    add("harness.run_s", "s", "lower", "host", "Network.run")
    add("harness.judge_s", "s", "lower", "host", "every judging pass")
    add("analysis.check_network_s", "s", "lower", "host", "check_network")
    add("analysis.check_stream_s", "s", "lower", "host",
        "check_stream over the retained trace (kv_steady only)")
    add("analysis.causal_order_s", "s", "lower", "host",
        "build_causal_order over the retained trace (kv_steady only)")
    add("analysis.kv_consistency_s", "s", "lower", "host",
        "check_kv_consistency + kv_summary")
    add("obs.build_spans_s", "s", "lower", "host", "build_spans")
    add("chaos.liveness_s", "s", "lower", "host",
        "check_liveness + check_self_heal + check_degradation")
    add("analysis.records_per_s", "1/s", "higher", "host",
        "trace records over harness.judge_s")
    add("analysis.judge_share", "ratio", "lower", "host",
        "harness.judge_s over build + run + judge")
    add("obs.trace_records", "count", "lower", "virtual",
        "trace records retained")
    add("obs.records_per_event", "ratio", "lower", "virtual",
        "trace records per simulator event")
    add("obs.spans", "count", "lower", "virtual", "request spans built")

    for category in LEDGER:
        add(f"model.virt_us_per_op.{category}", "virt_us", "lower", "virtual",
            f"CostLedger {category} per op: the modelled 1984 T4")

    add("chaos.cells", "count", "higher", "virtual", "chaos cells run")
    add("chaos.cells_unclean", "count", "lower", "virtual",
        "cells whose verdict is not ok")
    add("host.cpu_s", "s", "lower", "host",
        "CPU time of one untraced pass, mean over the passes")
    add("host.wall_over_cpu", "ratio", "lower", "host",
        "wall over CPU time of the untraced passes, both taken around the "
        "whole loop; well above 1 means descheduled")
    add("host.noise_ratio", "ratio", "lower", "host",
        "mean pass wall over wall_s: what the host's noise added")
    add("host.gc_collections", "count", "lower", "host",
        "garbage collections per untraced pass")

    add("failed_share", "ratio", "lower", "virtual",
        "ops that did not succeed over ops attempted, the expected ones "
        "(known-unclean cells, refusals by design) included")
    add("acked_write_loss", "count", "lower", "virtual",
        "lost-acknowledged-write verdicts; non-zero is incorrect")
    add("paper_rel_err", "ratio", "lower", "virtual",
        "txn_soak: worst |virtual ms - paper| / paper over B_SIGNAL (8.5 ms) "
        "and 1000-word EXCHANGE (128 ms)")
    add("kv_commit_p50_ms", "virt_ms", "lower", "virtual",
        "KV workloads: median kv.invoke to kv.result")
    add("kv_commit_p95_ms", "virt_ms", "lower", "virtual",
        "KV workloads: 95th percentile of the same")
    add("kv_failover_max_ms", "virt_ms", "lower", "virtual",
        "kv_faults: worst first crash of a promoted primary to the next "
        "definitive kv.result")
    add("virt_digest48", "hash", "higher", "virtual",
        "first 48 bits of virt_digest, so the driver's output carries it")
    return out


PER_LAYER = tuple(_per_layer())

#: ``setup_s`` also gets this absolute allowance in ``--compare``.
SETUP_SLACK_S = 0.1


def by_name() -> Dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The contract file, exactly the keys the driver reads."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
