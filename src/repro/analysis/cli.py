"""``python -m repro lint`` (flags declared in ``repro.cli.COMMANDS``).

A workload's judged run is a ``chaos`` cell (``chaos --workload W
--schedule calm [--causal]``); this module runs no workload."""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis.linter import LintConfig, has_errors, lint_paths
from repro.cli import emit

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

