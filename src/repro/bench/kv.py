"""The replicated-KV benchmark: availability and failover time.

Runs the ``kvstore_supervised`` workload under a few chaos schedules —
the fault-free control, the headline ``primary_crash_load`` (power-fail
the primary under client load, no scripted reboot: the supervisor must
fail over), and ``partition_heal`` (promote *during* a partition, fence
the stale primary at heal), plus ``cluster_restart`` (every replica
loses power at once and must recover its log from disk) — and reports,
per schedule:

* **availability** — definitively-answered ops / invoked ops;
* **failover time** — primary crash (or isolation) to the next
  definitive client outcome, and to the replacement's ``kv.promote``;
* **acknowledged_write_loss** — the count of "lost acknowledged write"
  verdicts from :func:`repro.replication.consistency.check_kv_consistency`
  (``verdicts`` pins this to zero: losing an acked write is never
  a tuning regression, it is a correctness bug);
* **requests_per_op** — kernel REQUESTs (``kernel.request`` records,
  every node's) per invoked client op: the messages the modelled
  system spends per op, pinned on ``calm`` by
  :data:`CALM_REQUESTS_PER_OP` so idle chatter cannot creep back;
* the full consistency-problem list (must be empty).

Deterministic: same seed ⇒ the same virtual-time runs ⇒ an identical
``BENCH_kv.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.workloads import build_workload
from repro.bench.tables import dict_table, failing, ms
from repro.chaos.scenario import chaos_config, make_schedule
from repro.replication.consistency import check_kv_consistency, kv_summary

__all__ = ["run_kv_bench", "KV_BENCH_SCHEDULES"]

#: The schedules the bench sweeps, in report order.
KV_BENCH_SCHEDULES = (
    "calm",
    "primary_crash_load",
    "partition_heal",
    "cluster_restart",
)

WORKLOAD = "kvstore_supervised"

#: ``requests_per_op`` of the calm schedule at seed 1: 322 REQUESTs for
#: 30 ops, 108 of them the primary's, 182 the supervisor's and 32 the
#: client's (512 and 298 while a calm primary ran an idle round every
#: 200 ms; 572 and 358 while every round that ran sent both an APPEND
#: and a CONFIRM; 857, 494 and 331 while the supervisor broadcast once
#: per replica and an idle round sent CONFIRMs; 2 453 and 81.8 while the
#: primary ran a round every 20 ms whether or not it had work).  The
#: verdict allows 10 % above it.
CALM_REQUESTS_PER_OP = 10.73


def _failover_metrics(records) -> Dict[str, Optional[float]]:
    """Crash-to-recovery intervals out of one run's trace.

    ``detect_us`` is the first primary loss (node crash, or isolation
    implied by a later promotion) to the replacement's ``kv.promote``;
    ``client_us`` extends to the next definitive client outcome after
    the loss.  ``None`` when the schedule never unseated a primary.
    """
    crash_at: Optional[float] = None
    promote_at: Optional[float] = None
    recovered_at: Optional[float] = None
    primaries: List[int] = []
    for rec in records:
        if rec.category == "kv.promote":
            primaries.append(rec["mid"])
            # The *first* promotion is cluster cold-boot, not failover.
            if crash_at is not None and promote_at is None:
                promote_at = rec.time
        elif rec.category == "kernel.crash":
            if crash_at is None and rec["mid"] in primaries:
                crash_at = rec.time
        elif rec.category == "kv.result":
            if (
                crash_at is not None
                and recovered_at is None
                and rec.time > crash_at
                and rec["status"] in ("ok", "cas_fail")
            ):
                recovered_at = rec.time
    return {
        "crash_at_us": crash_at,
        "promote_us": (
            None if crash_at is None or promote_at is None
            else promote_at - crash_at
        ),
        "client_us": (
            None if crash_at is None or recovered_at is None
            else recovered_at - crash_at
        ),
    }


def run_kv_bench(seed: int = 1) -> Dict[str, object]:
    """The ``BENCH_kv.json`` body (wrap via ``snapshot_payload``)."""
    schedules: Dict[str, Dict[str, object]] = {}
    for name in KV_BENCH_SCHEDULES:
        built = build_workload(WORKLOAD, seed=seed, config=chaos_config())
        make_schedule(name, built.spec).run(built)
        records = built.net.sim.trace.records

        problems = check_kv_consistency(records)
        summary = kv_summary(records)
        failover = _failover_metrics(records)
        schedules[name] = {
            "ops_invoked": summary["ops_invoked"],
            "ops_definitive": summary["ops_definitive"],
            "availability": summary["availability"],
            "outcomes": summary["outcomes"],
            "entries_applied": summary["entries_applied"],
            "promotions": summary["promotions"],
            "requests_per_op": (
                sum(rec.category == "kernel.request" for rec in records)
                / summary["ops_invoked"]
            ),
            "failover": failover,
            "acknowledged_write_loss": sum(
                1 for p in problems
                if p.startswith("lost acknowledged")
                or p.startswith("acknowledged write lost")
            ),
            "consistency_problems": problems,
        }

    crash_cell = schedules["primary_crash_load"]
    comparison = {
        "all_consistent": all(
            not cell["consistency_problems"] for cell in schedules.values()
        ),
        "acknowledged_write_loss": sum(
            cell["acknowledged_write_loss"] for cell in schedules.values()
        ),
        "failover_client_us": crash_cell["failover"]["client_us"],
        "failover_bounded": (
            crash_cell["failover"]["client_us"] is not None
        ),
    }
    return {
        "workload": WORKLOAD,
        "seed": seed,
        "schedules": schedules,
        "comparison": comparison,
    }


def run(ns) -> Dict[str, object]:
    return run_kv_bench(seed=ns.seed)


def render(body) -> str:
    schedules = body["schedules"]
    lines = [
        dict_table(
            f"Replicated KV under chaos ({body['workload']})",
            (
                ("schedule", "schedule"),
                ("definitive", lambda c: f"{c['ops_definitive']}/{c['ops_invoked']}"),
                ("avail", lambda c: f"{c['availability']:.3f}"),
                ("promoted", "promotions"),
                ("req/op", lambda c: f"{c['requests_per_op']:.1f}"),
                ("failover ms", lambda c: ms(c["failover"]["promote_us"])),
                ("recover ms", lambda c: ms(c["failover"]["client_us"])),
                ("lost acks", "acknowledged_write_loss"),
                ("violations", lambda c: len(c["consistency_problems"])),
            ),
            [dict(cell, schedule=name) for name, cell in schedules.items()],
        )
    ]
    for name, cell in schedules.items():
        lines += [f"  {name}: {p}" for p in cell["consistency_problems"]]
    comparison = body["comparison"]
    lines += [
        f"acknowledged writes lost: {comparison['acknowledged_write_loss']}",
        f"failover bounded: {comparison['failover_bounded']}",
    ]
    return "\n".join(lines)


def verdicts(body) -> List[str]:
    comparison = body["comparison"]
    lost = comparison["acknowledged_write_loss"]
    calm = body["schedules"]["calm"]["requests_per_op"]
    return failing(
        [
            (calm <= 1.1 * CALM_REQUESTS_PER_OP,
             f"calm spends {calm:.2f} kernel REQUESTs per op "
             f"(> 1.1 x {CALM_REQUESTS_PER_OP})"),
            (comparison["all_consistent"],
             "a schedule has consistency violations"),
            (not lost, f"{lost} acknowledged write(s) lost"),
            (comparison["failover_bounded"],
             "no definitive client outcome after the primary crash"),
        ]
    )
