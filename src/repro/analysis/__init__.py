"""Static and dynamic correctness tooling for SODA programs.

Three parts:

* **sodalint** — an AST-based linter (:mod:`repro.analysis.linter`,
  :mod:`repro.analysis.rules`) that walks SODA client programs and
  reports protocol misuse the kernel cannot catch at runtime: blocking
  task-level primitives in handler context, ADVERTISE of reserved
  patterns, fire-and-forget REQUESTs, handler re-entry, discarded
  generator/future results, and direct mutation of kernel-owned state.
* **trace invariant checker** — :mod:`repro.analysis.invariants` walks
  :class:`~repro.sim.tracing.Tracer` records once, live or after a run,
  holding only open-transaction state, and asserts machine-checkable
  transport invariants: alternating-bit sequence alternation,
  retransmission bounds, handler non-nesting, delivered-request
  completion, and cost-ledger consistency.
* **causal analysis engine** — :mod:`repro.analysis.causal` builds a
  vector-clock happens-before relation over the same records and runs
  the SODA010-014 race/deadlock/late-rx rules.

See ``docs/ANALYSIS.md`` for the rule table and extension guide.
"""

from repro.analysis.causal import (
    CausalDiagnostic,
    CausalSink,
    build_causal_order,
    check_stream,
    detect_deadlocks,
)
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.invariants import (
    InvariantChecker,
    InvariantViolation,
    check_network,
)
from repro.analysis.linter import LintConfig, Linter, lint_paths
from repro.analysis.rules import LintRule, all_rules, get_rule, register_rule

__all__ = [
    "CausalDiagnostic",
    "CausalSink",
    "Diagnostic",
    "Severity",
    "build_causal_order",
    "check_stream",
    "detect_deadlocks",
    "LintRule",
    "register_rule",
    "get_rule",
    "all_rules",
    "LintConfig",
    "Linter",
    "lint_paths",
    "InvariantChecker",
    "InvariantViolation",
    "check_network",
]
