"""Causal analysis engine over kernel trace records (PR 6).

Three cooperating pieces, all pure functions of a trace:

* :mod:`repro.analysis.causal.clocks` — vector clocks / happens-before;
* :mod:`repro.analysis.causal.races` — SODA010-SODA012 causal race
  rules with shrunk witness pairs;
* :mod:`repro.analysis.causal.waitfor` — SODA013 wait-for-graph
  deadlock detection from open transaction spans.

:func:`causal_diagnostics` runs the three over one trace.
:func:`check_stream` — the invariant checker over a record sequence —
lives in :mod:`repro.analysis.invariants` and is re-exported here.

See docs/ANALYSIS.md ("Causal analysis") for the clock model and the
rule table.
"""

from repro.analysis.causal.clocks import CausalOrder, build_causal_order
from repro.analysis.causal.races import CausalDiagnostic, find_races
from repro.analysis.causal.waitfor import (
    WaitForGraph,
    build_wait_graph,
    detect_deadlocks,
)
from repro.analysis.invariants import check_stream


def causal_diagnostics(records):
    """The causal verdict of one trace: ``(lines, order)`` — each
    SODA010-013 diagnostic formatted, and the happens-before relation
    they were judged on."""
    order = build_causal_order(records)
    diagnostics = find_races(records, order) + detect_deadlocks(records)
    return [diag.format() for diag in diagnostics], order


__all__ = [
    "CausalDiagnostic",
    "CausalOrder",
    "WaitForGraph",
    "build_causal_order",
    "build_wait_graph",
    "causal_diagnostics",
    "check_stream",
    "detect_deadlocks",
    "find_races",
]
