"""Adaptive-vs-static transport benchmark (ISSUE 5 acceptance).

Runs the chaos workloads under the ``sustained_loss`` schedule twice —
once with the paper-faithful :class:`~repro.transport.retransmit.StaticPolicy`
and once with :class:`~repro.transport.adaptive.AdaptivePolicy` — and
pools spurious-retransmit counts and end-to-end latencies across the
whole sweep.  The exported ``BENCH_transport.json`` (``soda.bench/1``)
carries the per-policy aggregates plus a ``comparison`` verdict: the
adaptive policy must beat the static one on *both* the pooled
spurious-retransmit count and the pooled p99 transaction latency.

Everything is seed-deterministic, so the snapshot can be diffed commit
to commit like the other ``BENCH_*`` files.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.workloads import build_workload
from repro.bench.tables import dict_table, failing, ms
from repro.chaos.liveness import percentile
from repro.chaos.scenario import chaos_config, make_schedule
from repro.obs.spans import build_spans
from repro.transport.adaptive import AdaptivePolicy
from repro.transport.retransmit import RetransmitPolicy, StaticPolicy

#: Workloads pooled into the comparison.  ``cancel`` is omitted: its
#: only judged span is a withdrawal, contributing no latency signal.
BENCH_WORKLOADS = (
    "echo",
    "stream",
    "queued",
    "busy",
    "signal",
    "supervised",
)

BENCH_SCHEDULE = "sustained_loss"


def _run_one(
    policy: RetransmitPolicy, workload: str, seed: int
) -> Dict[str, object]:
    built = build_workload(
        workload, seed=seed, config=chaos_config(policy)
    )
    make_schedule(BENCH_SCHEDULE, built.spec).run(built)
    records = built.net.sim.trace.records
    spans = build_spans(records)
    latencies = [
        span.latency_us
        for span in spans
        if span.completed
        and span.latency_us is not None
        and not span.is_discover
    ]
    return {
        "workload": workload,
        "seed": seed,
        "spurious_retransmits": sum(
            1
            for rec in records
            if rec.category == "conn.spurious_retransmit"
        ),
        "retransmits": sum(
            1 for rec in records if rec.category == "conn.retransmit"
        ),
        "sheds": sum(
            1 for rec in records if rec.category == "kernel.shed"
        ),
        "completed": len(latencies),
        "latencies_us": latencies,
    }


def _run_one_packed(args) -> Dict[str, object]:
    """Module-level trampoline for ProcessPoolExecutor workers.

    Policies travel by name, not instance, so the worker constructs a
    fresh default-configured policy — exactly what the serial path does.
    """
    policy_name, workload, seed = args
    policy: RetransmitPolicy = (
        StaticPolicy() if policy_name == "static" else AdaptivePolicy()
    )
    return _run_one(policy, workload, seed)


def _aggregate(cells: List[Dict[str, object]]) -> Dict[str, object]:
    latencies: List[float] = []
    for cell in cells:
        latencies.extend(cell["latencies_us"])  # type: ignore[arg-type]
    summary: Dict[str, object] = {
        "spurious_retransmits": sum(
            cell["spurious_retransmits"] for cell in cells
        ),
        "retransmits": sum(cell["retransmits"] for cell in cells),
        "sheds": sum(cell["sheds"] for cell in cells),
        "completed": len(latencies),
        "p50_latency_us": (
            percentile(latencies, 0.50) if latencies else None
        ),
        "p99_latency_us": (
            percentile(latencies, 0.99) if latencies else None
        ),
    }
    return summary


def run_transport_bench(
    seeds: Sequence[int] = (1,),
    workloads: Optional[Sequence[str]] = None,
    parallel: Optional[int] = None,
) -> Dict[str, object]:
    """The ``BENCH_transport.json`` body: per-policy sweeps + verdict.

    ``parallel=N`` farms the (policy × seed × workload) cells out to N
    worker processes; every cell is seed-deterministic, so the merged
    body is byte-identical to a serial run.
    """
    workload_names = tuple(workloads) if workloads else BENCH_WORKLOADS
    policy_names = ("static", "adaptive")
    body: Dict[str, object] = {
        "schedule": BENCH_SCHEDULE,
        "workloads": list(workload_names),
        "seeds": list(seeds),
    }
    jobs = [
        (name, workload, seed)
        for name in policy_names
        for seed in seeds
        for workload in workload_names
    ]
    if parallel is not None and parallel > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(parallel, len(jobs))
        ) as pool:
            # map() yields in submission order: the serial enumeration.
            all_cells = list(pool.map(_run_one_packed, jobs))
    else:
        all_cells = [_run_one_packed(job) for job in jobs]
    per_policy = len(seeds) * len(workload_names)
    aggregates: Dict[str, Dict[str, object]] = {}
    for index, name in enumerate(policy_names):
        cells = all_cells[index * per_policy : (index + 1) * per_policy]
        aggregates[name] = _aggregate(cells)
        for cell in cells:
            # Raw latency lists are bulky and derivable; keep the
            # per-cell summary slim.
            cell.pop("latencies_us")
        body[name] = {"cells": cells, "summary": aggregates[name]}
    static, adaptive = aggregates["static"], aggregates["adaptive"]
    body["comparison"] = {
        "adaptive_beats_static_spurious": (
            adaptive["spurious_retransmits"]
            < static["spurious_retransmits"]
        ),
        "adaptive_beats_static_p99": (
            static["p99_latency_us"] is not None
            and adaptive["p99_latency_us"] is not None
            and adaptive["p99_latency_us"] < static["p99_latency_us"]
        ),
        "policy_knobs": {
            "static": StaticPolicy().as_dict(),
            "adaptive": AdaptivePolicy().as_dict(),
        },
    }
    return body


def run(ns) -> Dict[str, object]:
    return run_transport_bench(seeds=(ns.seed,), parallel=ns.parallel)


def render(body) -> str:
    table = dict_table(
        f"Transport policies under {body['schedule']}",
        (
            ("policy", "policy"),
            ("spurious", "spurious_retransmits"),
            ("retx", "retransmits"),
            ("sheds", "sheds"),
            ("completed", "completed"),
            ("p50 ms", lambda row: ms(row["p50_latency_us"])),
            ("p99 ms", lambda row: ms(row["p99_latency_us"])),
        ),
        [
            dict(body[policy]["summary"], policy=policy)
            for policy in ("static", "adaptive")
        ],
    )
    comparison = body["comparison"]
    return (
        f"{table}\n"
        "adaptive beats static on spurious retransmits: "
        f"{comparison['adaptive_beats_static_spurious']}\n"
        "adaptive beats static on p99 latency: "
        f"{comparison['adaptive_beats_static_p99']}"
    )


def verdicts(body) -> List[str]:
    comparison = body["comparison"]
    return failing(
        (comparison[f"adaptive_beats_static_{key}"],
         f"adaptive does not beat static on {what}")
        for key, what in (
            ("spurious", "spurious retransmits"),
            ("p99", "p99 latency"),
        )
    )
