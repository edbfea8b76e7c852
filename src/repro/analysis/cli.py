"""The analysis commands of ``python -m repro``: ``lint``,
``check-trace`` and ``causal`` (flags declared in ``repro.cli.COMMANDS``)."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.analysis.causal import CausalSink, detect_deadlocks
from repro.analysis.invariants import InvariantChecker
from repro.analysis.linter import LintConfig, has_errors, lint_paths
from repro.cli import emit, known
from repro.obs.spans import SpanBuilder
from repro.sim.tracing import SinkTable
from repro.workloads import CAUSAL_WORKLOADS, WORKLOADS, build_workload

#: Linted by default: the repo's own client programs.
DEFAULT_LINT_PATHS = ("src/repro/apps", "examples")


def run_lint(ns) -> int:
    """``lint``: 0 = clean, 1 = findings, 2 = a path does not exist."""
    missing = [path for path in ns.paths if not Path(path).exists()]
    if missing:
        print(
            f"sodalint: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    paths = ns.paths or list(DEFAULT_LINT_PATHS)
    diagnostics = lint_paths(paths, LintConfig(disabled=frozenset(ns.disable)))
    for diag in diagnostics:
        print(diag.format())
    errors = sum(1 for d in diagnostics if d.severity.value == "error")
    print(
        f"sodalint: {len(diagnostics)} finding(s), {errors} error(s) "
        f"in {', '.join(paths)}"
    )
    emit(
        ns,
        "lint",
        {
            "paths": paths,
            "disabled": sorted(ns.disable),
            "findings": [d.to_dict() for d in diagnostics],
            "errors": errors,
        },
    )
    return 1 if has_errors(diagnostics) else 0


def run_check_trace(ns) -> int:
    """``check-trace``: 0 = every invariant holds."""
    if not known("workload", ns.workload, WORKLOADS):
        return 2
    names = ns.workload or sorted(WORKLOADS)
    failures = 0
    results: List[Dict[str, Any]] = []
    for name in names:
        built = build_workload(name, keep_trace=False)
        net = built.net
        checker = InvariantChecker(network=net)
        table = SinkTable(checker).install(net)
        built.run()
        violations = [
            v.format()
            for v in checker.finish(ledger=net.ledger, end_time=table.end_time)
        ]
        records = table.records_fed
        if violations:
            failures += 1
            print(f"{name}: FAILED ({records} trace records)")
            for violation in violations:
                print(f"    {violation}")
        else:
            print(
                f"{name}: ok ({records} trace records, all invariants hold)"
            )
        results.append(
            {"workload": name, "records": records, "violations": violations}
        )
    print(
        f"check-trace: {len(names) - failures}/{len(names)} workload(s) clean"
    )
    emit(ns, "check_trace", {"workloads": results})
    return 1 if failures else 0


def run_causal(ns) -> int:
    """``causal``: 0 = no causal diagnostics.

    Runs each workload counters-only with one live table of the
    invariant checker (for its open-state figure), the span builder and
    the causal engine, and reports races (SODA010-012) and wait-for
    deadlocks (SODA013).  The default set is the standard (clean)
    workloads; the causal-only pathology demos — e.g.
    ``philosophers_noarb``, which must FAIL with a SODA013 cycle — run
    only when named explicitly.
    """
    if not known("workload", ns.workload, CAUSAL_WORKLOADS):
        return 2
    names = ns.workload or sorted(WORKLOADS)
    failing = 0
    results: List[Dict[str, Any]] = []
    for name in names:
        built = build_workload(name, keep_trace=False)
        checker = InvariantChecker(network=built.net)
        spans = SpanBuilder()
        causal = CausalSink(mpl_us=built.net.config.deltat.mpl_us)
        table = SinkTable(checker, spans, causal).install(built.net)
        built.run()
        diagnostics = [
            diag.format()
            for diag in causal.finish() + detect_deadlocks(spans.finish())
        ]
        if diagnostics:
            failing += 1
        status = "FAILED" if diagnostics else "ok"
        print(
            f"{name}: {status} ({table.records_fed} records, "
            f"{causal.clocks_allocated} clocks, "
            f"{causal.send_edges} send/recv edges, "
            f"peak open state {checker.peak_open_state})"
        )
        for line in diagnostics:
            print(f"    {line}")
        results.append(
            {
                "workload": name,
                "records": table.records_fed,
                "clocks_allocated": causal.clocks_allocated,
                "send_edges": causal.send_edges,
                "unmatched_rx": causal.unmatched_rx,
                "processes": len(causal.processes),
                "peak_open_state": checker.peak_open_state,
                "diagnostics": diagnostics,
            }
        )
    print(f"causal: {len(names) - failing}/{len(names)} workload(s) clean")
    emit(ns, "causal", {"workloads": results})
    return 1 if failing else 0
