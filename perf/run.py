#!/usr/bin/env python3
"""The repo's one benchmark.

Three ways in:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One measurement of one workload (what the driver runs).  The last
    line of stdout is one JSON object: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — every end-to-end metric with
    ``--trace 0``, every per-layer metric with ``--trace 1``.

``python3 perf/run.py [--seed 1] [--json OUT]``
    All four workloads, three untraced measurements and one traced,
    every metric printed by name with its unit, results written to
    ``OUT``.

``python3 perf/run.py --compare A.json B.json``
    Two result files side by side; exit 1 if B is worse than A beyond a
    bound or any exact number differs.

Each measurement runs in a fresh child interpreter, one at a time, so
``peak_rss_mb`` belongs to one workload and ``setup_s`` includes
interpreter start and ``import repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import catalog
from layers import layer_metrics

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Set-up-only children run before, and again after, the timed child of
#: an untraced measurement.  ``setup_s`` is the fastest of them and the
#: timed child's own set-up: this host's noise only ever adds time, and
#: samples on both sides of a 15 s run rarely all land in a slow phase.
SETUP_SAMPLES = 4
#: Passes the untraced child makes over its inputs (see ``child``).
PASSES = 3
#: Untraced measurements per workload when running all four.
REPEATS = 3
#: A measurement has 180 s; no child of one may take this long.
CHILD_TIMEOUT_S = 160


# ----------------------------------------------------------------------
# the child: one timed region
# ----------------------------------------------------------------------


def child(args: argparse.Namespace) -> None:
    import gc
    import resource

    from workloads import (
        PAPER_REL_ERR_LIMIT, REGISTRY, Recorder, analysis_passes,
        bare_events_per_s, percentile,
    )

    make_inputs, run, owns_networks = REGISTRY[args.workload]
    inputs = make_inputs(args.seed, args.seconds)
    profiler = None
    if args.child == "profile":
        import cProfile

        profiler = cProfile.Profile()
    report: Dict[str, object] = {"setup_s": time.monotonic() - args.t0}
    if args.child == "setup":
        print(json.dumps(report))
        return

    # The untraced run makes PASSES passes over the same inputs.  Each
    # pass is cut into slices (a chaos cell, a quarter second of virtual
    # time) that do exactly the same work every pass, and wall_s is the
    # sum over slices of the fastest pass: this host's noise only ever
    # slows a slice down, in bursts much shorter than a pass.
    passes = PASSES if args.child == "timed" else 1
    outcome = None
    slices: List[list] = []
    digests = set()
    collections = sum(s["collections"] for s in gc.get_stats())
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(passes):
        outcome = None  # free the last pass's networks before the next
        # From a collected heap the same allocations trigger the same
        # collections, so a slice holds the same GC work every pass.
        gc.collect()
        rec = Recorder()
        if profiler is not None:
            profiler.enable()
        if owns_networks:
            outcome = run(inputs, rec)
        else:
            outcome = run(inputs, rec, args.child == "staged")
        if profiler is not None:
            profiler.disable()
        slices.append(rec.slices())
        digests.add(outcome.digest())
    # Both around the whole loop, so their ratio says how much of the
    # time the process held a core.
    report["cpu_s"] = (time.process_time() - cpu0) / passes
    report["loop_wall_s"] = (time.perf_counter() - wall0) / passes
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    report["gc_collections"] = (
        sum(s["collections"] for s in gc.get_stats()) - collections
    ) / passes
    names = [[name for name, _ in one] for one in slices]
    if len(digests) != 1 or any(one != names[0] for one in names):
        raise SystemExit(
            f"perf: {args.workload}: passes over the same inputs differ"
        )
    report["wall_s"] = sum(
        min(durations) for durations in zip(
            *([d for _, d in one] for one in slices)
        )
    )
    report["pass_wall_s"] = [sum(d for _, d in one) for one in slices]

    if args.child == "timed" and args.spans_out:  # the traced measurement
        analysis_passes(outcome, rec)
        report["bare_events_per_s"] = bare_events_per_s()
    if profiler is not None:
        from layers import fold_profile

        report["profile"] = fold_profile(profiler)
    problems = []
    if outcome.acked_write_loss:
        problems.append(
            f"{outcome.acked_write_loss} acknowledged write(s) lost"
        )
    if outcome.paper_rel_err > PAPER_REL_ERR_LIMIT:
        problems.append(
            f"paper_rel_err {outcome.paper_rel_err:.4f} beyond "
            f"{PAPER_REL_ERR_LIMIT}"
        )
    latencies = outcome.kv_latencies_ms
    report.update(
        owns_networks=owns_networks,
        problems=problems,
        ops=outcome.ops,
        failed=outcome.failed,
        expected_failed=outcome.expected_failed,
        digest=outcome.digest(),
        unclean=outcome.unclean,
        acked_write_loss=outcome.acked_write_loss,
        paper_rel_err=outcome.paper_rel_err,
        counters=dict(outcome.counters),
        # Stage times are the last pass's, as measured.
        stage_s={name: rec.total(name) for name in {s[2] for s in rec.spans}},
        kv_ops=len(latencies),
        kv_commit_p50_ms=percentile(latencies, 0.50),
        kv_commit_p95_ms=percentile(latencies, 0.95),
        kv_failover_max_ms=max(outcome.kv_failover_ms, default=0.0),
    )
    if args.spans_out:
        Path(args.spans_out).write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "mode": args.child,
            "columns": ["id", "trace", "name", "start_s", "end_s", "parent"],
            "spans": rec.spans,
        }))
    print(json.dumps(report))


def run_child(
    mode: str, workload: str, seed: int, seconds: float,
    spans_out: Optional[Path] = None,
) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        # subprocess.run kills and reaps the child if the timeout expires.
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"perf: {mode} child of {workload} took more than "
            f"{CHILD_TIMEOUT_S} s; --seconds {seconds:g} is too large"
        ) from None
    if proc.returncode != 0:
        raise SystemExit(
            f"perf: {mode} child of {workload} exited {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# one measurement
# ----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measurement: end-to-end metrics, or per-layer if ``trace``."""
    def setup_samples() -> List[float]:
        return [] if trace else [
            run_child("setup", workload, seed, seconds)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]

    setups = setup_samples()
    spans_out = None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_out = OUT_DIR / f"spans-{workload}.json"

    timed = run_child("timed", workload, seed, seconds, spans_out=spans_out)
    problems: List[str] = list(timed["problems"])

    extra: Dict[str, object] = {}
    if not trace:
        setups += [timed["setup_s"]] + setup_samples()
        values = {
            "setup_s": min(setups),
            "wall_s": timed["wall_s"],
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        specs = catalog.END_TO_END
    else:
        # Where the workload owns its networks the untraced run already
        # read their counters and recorded a span per stage.
        staged = timed if timed["owns_networks"] else run_child(
            "staged", workload, seed, seconds, spans_out=spans_out
        )
        profiled = run_child("profile", workload, seed, seconds)
        for name, other in (("staged", staged), ("profiled", profiled)):
            if other["digest"] != timed["digest"]:
                problems.append(
                    f"{name} run's virt_digest differs from the untraced "
                    f"run's: the simulated results are not the same"
                )
        values = layer_metrics(timed, staged, profiled)
        shares = sum(values[f"{p}.self_share"] for p in catalog.PACKAGES)
        if abs(shares - 1.0) > 0.01:
            problems.append(f"self_share values sum to {shares:.4f}")
        specs = catalog.PER_LAYER
        extra = {"top_fn": profiled["profile"]["top_fn"],
                 "spans_file": str(spans_out.relative_to(HERE.parent))}

    for spec in specs:
        if not math.isfinite(values[spec.name]):
            problems.append(f"{spec.name} is not finite")
    for line in problems:
        print(f"perf: {workload}: INCORRECT: {line}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": timed["ops"],
        "failed": timed["failed"],
        "expected_failed": timed["expected_failed"],
        "metrics": {
            spec.name: {"value": values[spec.name], "unit": spec.unit}
            for spec in specs
        },
        "virt_digest": timed["digest"],
        "unclean": timed["unclean"],
        **extra,
    }


def driver_mode(args: argparse.Namespace) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}",
              file=sys.stderr)
    for key in ("virt_digest", "expected_failed", "unclean", "top_fn",
                "spans_file"):
        if key in result:
            print(f"{key} {result[key]}", file=sys.stderr)
    contract = {
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }
    print(json.dumps(contract))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# all four workloads
# ----------------------------------------------------------------------


def full_mode(args: argparse.Namespace) -> int:
    kinds = catalog.by_name()
    results: Dict[str, object] = {}
    ok = True
    for workload, why in catalog.WORKLOADS:
        print(f"== {workload}: {why}", flush=True)
        runs = [
            measure(workload, args.seed, args.seconds, trace=False)
            for _ in range(REPEATS)
        ]
        traced = measure(workload, args.seed, args.seconds, trace=True)
        runs.append(traced)
        digests = {run["virt_digest"] for run in runs}
        correct = all(run["correct"] for run in runs) and len(digests) == 1
        if len(digests) != 1:
            print(f"perf: {workload}: INCORRECT: virt_digest differs "
                  f"between repeats", file=sys.stderr)
        ok = ok and correct

        samples: Dict[str, List[float]] = {}
        for run in runs:
            for name, metric in run["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
        metrics = {}
        for name, values in samples.items():
            spec = kinds[name]
            metrics[name] = {
                "unit": spec.unit,
                "kind": spec.kind,
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
            }
        results[workload] = {
            "why": why,
            "correct": correct,
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "expected_failed": traced["expected_failed"],
            "virt_digest": traced["virt_digest"],
            "unclean": traced["unclean"],
            "top_fn": traced["top_fn"],
            "spans_file": traced["spans_file"],
            "metrics": metrics,
        }
        print(f"   correct={correct} attempted={traced['attempted']} "
              f"failed={traced['failed']} "
              f"expected_failed={traced['expected_failed']} "
              f"unclean={traced['unclean']}")
        print(f"   virt_digest={traced['virt_digest']}")
        print(f"   top function: {traced['top_fn']}")
        print(f"   {'metric':40s} {'median':>14s} {'min':>14s} "
              f"{'max':>14s}  n unit")
        for name, m in metrics.items():
            print(f"   {name:40s} {m['median']:>14.6g} {m['min']:>14.6g} "
                  f"{m['max']:>14.6g} {m['n']:>2d} {m['unit']}")
    print(f"unmeasured packages (no workload exercises them): "
          f"{', '.join(catalog.UNMEASURED)}")

    body = {
        "schema": "soda.perf/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "unmeasured": list(catalog.UNMEASURED),
        "workloads": results,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(body, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """A and B side by side.  Exact (virtual) numbers and digests must
    be equal; a host end-to-end metric may not be worse in B than in A
    by more than its bound; host per-layer numbers are shown, not judged.
    """
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    specs = catalog.by_name()
    bad = 0
    print(f"{'workload':11s} {'metric':40s} {'A':>14s} {'B':>14s} "
          f"{'B vs A':>9s} {'bound':>7s}  verdict")
    for workload, _ in catalog.WORKLOADS:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            print(f"{workload:11s} missing from one side")
            bad += 1
            continue
        same = wa["virt_digest"] == wb["virt_digest"]
        bad += 0 if same else 1
        for side, body in (("A", wa), ("B", wb)):
            if not body["correct"] or body["failed"]:
                print(f"{workload:11s} {side} is not a clean run: "
                      f"correct={body['correct']} failed={body['failed']}")
                bad += 1
        print(f"{workload:11s} {'virt_digest':40s} "
              f"{wa['virt_digest'][:14]:>14s} {wb['virt_digest'][:14]:>14s} "
              f"{'':9s} {'exact':>7s}  {'equal' if same else 'DIFFERENT'}")
        for name, spec in specs.items():
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            va = wa["metrics"][name]["median"]
            vb = wb["metrics"][name]["median"]
            rel = (vb - va) / abs(va) if va else (0.0 if vb == va else math.inf)
            if spec.kind == "virtual":
                bound, verdict = "exact", "equal" if va == vb else "DIFFERENT"
            elif spec.bound is None:
                bound, verdict = "-", "-"
            else:
                worse = rel if spec.better == "lower" else -rel
                slack = catalog.SETUP_SLACK_S if name == "setup_s" else 0.0
                allowed = abs(va) * spec.bound + slack
                bound = f"{spec.bound:.0%}"
                verdict = (
                    "WORSE" if worse * abs(va) > allowed
                    else "better" if worse < 0 else "within"
                )
            bad += verdict in ("DIFFERENT", "WORSE")
            print(f"{workload:11s} {name:40s} {va:>14.6g} {vb:>14.6g} "
                  f"{rel:>+9.2%} {bound:>7s}  {verdict}")
    print(f"{bad} metric(s) outside their bound" if bad else "all within bounds")
    return 1 if bad else 0


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    names = [name for name, _ in catalog.WORKLOADS]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=names,
                        help="measure one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="what a run measures for on the seed commit; "
                             "workload sizes scale with it (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a staged and a "
                             "profiled run")
    parser.add_argument("--json", metavar="OUT",
                        help="write all four workloads' results here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS,
                        choices=("setup", "timed", "staged", "profile"))
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.child:
        child(args)
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return driver_mode(args)
    return full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
