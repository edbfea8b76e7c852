"""Per-layer numbers: a cProfile folded on module path, and the metrics
computed from what the timed, staged and profiled children report.

Layers are this repo's packages.  Profile shares carry the profiler's
bias toward Python-level calls (C-level work is not slowed, so it looks
cheaper than it is); absolute times come only from untraced runs.
"""

from __future__ import annotations

import pstats
from typing import Dict

from catalog import LEDGER, PACKAGES

_MEASURED = frozenset(PACKAGES) - {"other"}


def _inside_repro(filename: str) -> str:
    """``/any/where/src/repro/core/kernel.py`` -> ``core/kernel.py``;
    empty for a file that is not part of ``repro``."""
    _, found, inside = filename.replace("\\", "/").rpartition("/repro/")
    return inside if found else ""


def package_of(filename: str) -> str:
    """``.../repro/<pkg>/...`` -> ``<pkg>``; everything else ``other``
    (stdlib, builtins, ``perf/`` and the ``repro.bench`` load programs)."""
    pkg = _inside_repro(filename).split("/")[0]
    return pkg if pkg in _MEASURED else "other"


def fold_profile(profiler) -> Dict[str, object]:
    """Self time per package, and the single hottest function."""
    self_s = {pkg: 0.0 for pkg in PACKAGES}
    top_name, top_s = "", 0.0
    for (filename, line, name), row in pstats.Stats(profiler).stats.items():
        own = row[2]
        self_s[package_of(filename)] += own
        if own > top_s:
            where = _inside_repro(filename)
            top_name = f"repro/{where}:{line}:{name}" if where else name
            top_s = own
    total = sum(self_s.values())
    return {
        "self_s": self_s,
        "total_s": total,
        "top_fn": top_name,
        "top_fn_share": top_s / total if total else 0.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(timed: dict, staged: dict, profiled: dict) -> Dict[str, float]:
    """Every per-layer metric, from three children's reports.

    ``timed`` is the untraced run users would make, ``staged`` the run
    that could read counters and stage spans (the same report where the
    workload owns its networks), ``profiled`` the cProfile run.
    """
    out: Dict[str, float] = {}
    profile = profiled["profile"]
    for pkg in PACKAGES:
        out[f"{pkg}.self_s"] = profile["self_s"][pkg]
        out[f"{pkg}.self_share"] = _ratio(
            profile["self_s"][pkg], profile["total_s"]
        )
    out["trace.top_fn_share"] = profile["top_fn_share"]
    out["trace.overhead_ratio"] = _ratio(profiled["wall_s"], timed["wall_s"])
    out["trace.staged_ratio"] = _ratio(staged["wall_s"], timed["wall_s"])

    counters = staged["counters"]
    stage = staged["stage_s"]

    def count(name: str) -> float:
        return counters.get(name, 0)

    def spent(name: str) -> float:
        return stage.get(name, 0.0)

    ops = timed["ops"]
    events = count("sim.events")
    out["sim.events"] = events
    out["sim.events_per_s"] = _ratio(events, spent("run"))
    out["sim.virt_us_per_wall_us"] = _ratio(
        count("sim.virt_us"), spent("run") * 1e6
    )
    out["sim.bare_events_per_s"] = timed["bare_events_per_s"]
    out["sim.rate_vs_bare"] = _ratio(
        out["sim.events_per_s"], timed["bare_events_per_s"]
    )

    retained = count("core.requests_retained") + count("core.delivered_retained")
    out["core.requests_retained"] = count("core.requests_retained")
    out["core.delivered_retained"] = count("core.delivered_retained")
    out["core.requests_retained_per_op"] = _ratio(retained, ops)

    frames = count("net.frames")
    out["net.frames"] = frames
    out["net.frames_per_op"] = _ratio(frames, ops)
    out["net.wire_bytes"] = count("net.wire_bytes")
    out["net.bus_busy_share"] = _ratio(
        count("net.bus_busy_us"), count("sim.virt_us")
    )
    out["net.frames_dropped"] = count("net.frames_dropped")
    out["transport.retransmits"] = count("transport.retransmits")
    out["transport.spurious_retransmits"] = count(
        "transport.spurious_retransmits"
    )
    out["transport.retransmit_share"] = _ratio(
        count("transport.retransmits"), frames
    )

    out["replication.requests_per_op"] = _ratio(
        count("core.requests"), staged["kv_ops"]
    )
    for name in ("entries_applied", "promotions", "sync_rounds"):
        out[f"replication.{name}"] = count(f"replication.{name}")
    for name in ("appends", "syncs", "snapshots", "faults_landed"):
        out[f"durability.{name}"] = count(f"durability.{name}")
    out["durability.syncs_per_commit"] = _ratio(
        count("durability.syncs"), count("replication.entries_applied")
    )
    out["durability.disk_io_virt_us"] = count("model.disk_io")
    for name in ("crashes_detected", "reboots_issued", "false_suspicions"):
        out[f"recovery.{name}"] = count(f"recovery.{name}")

    build, run, judge = spent("build"), spent("run"), spent("judge")
    out["harness.build_s"] = build
    out["harness.run_s"] = run
    out["harness.judge_s"] = judge
    out["analysis.check_network_s"] = spent("analysis.check_network")
    out["analysis.check_stream_s"] = spent("analysis.check_stream")
    out["analysis.causal_order_s"] = spent("analysis.causal_order")
    out["analysis.kv_consistency_s"] = spent("analysis.kv_consistency")
    out["obs.build_spans_s"] = spent("obs.build_spans")
    out["chaos.liveness_s"] = spent("chaos.liveness")
    records = count("obs.trace_records")
    out["analysis.records_per_s"] = _ratio(records, judge)
    out["analysis.judge_share"] = _ratio(judge, build + run + judge)
    out["obs.trace_records"] = records
    out["obs.records_per_event"] = _ratio(records, events)
    out["obs.spans"] = count("obs.spans")

    for category in LEDGER:
        out[f"model.virt_us_per_op.{category}"] = _ratio(
            count(f"model.{category}"), ops
        )

    out["chaos.cells"] = timed["counters"].get("chaos.cells", 0)
    out["chaos.cells_unclean"] = timed["counters"].get(
        "chaos.cells_unclean", 0
    )
    mean_pass = sum(timed["pass_wall_s"]) / len(timed["pass_wall_s"])
    out["host.cpu_s"] = timed["cpu_s"]
    out["host.wall_over_cpu"] = _ratio(timed["loop_wall_s"], timed["cpu_s"])
    out["host.noise_ratio"] = _ratio(mean_pass, timed["wall_s"])
    out["host.gc_collections"] = timed["gc_collections"]

    out["failed_share"] = _ratio(
        timed["failed"] + timed["expected_failed"], ops
    )
    out["acked_write_loss"] = timed["acked_write_loss"]
    out["paper_rel_err"] = timed["paper_rel_err"]
    out["kv_commit_p50_ms"] = staged["kv_commit_p50_ms"]
    out["kv_commit_p95_ms"] = staged["kv_commit_p95_ms"]
    out["kv_failover_max_ms"] = staged["kv_failover_max_ms"]
    out["virt_digest48"] = int(timed["digest"][:12], 16)
    return out
