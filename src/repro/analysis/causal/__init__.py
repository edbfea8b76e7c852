"""Causal analysis engine over kernel trace records (PR 6).

Two pieces:

* :mod:`repro.analysis.causal.sink` — :class:`CausalSink`, a record sink
  that keeps vector clocks (happens-before) and judges the SODA010-SODA012
  causal race rules with witness pairs as the records stream past,
  and SODA014 (an rx past the packet lifetime);
* :mod:`repro.analysis.causal.waitfor` — SODA013 wait-for-graph
  deadlock detection from the pending spans of a
  :class:`~repro.obs.spans.SpanBuilder` in the same table.

A run's causal verdict is ``sink.finish() + detect_deadlocks(spans)``.
:func:`check_stream` — the invariant checker over a record sequence —
lives in :mod:`repro.analysis.invariants` and is re-exported here.

See docs/ANALYSIS.md ("Causal analysis") for the clock model and the
rule table.
"""

from repro.analysis.causal.sink import (
    CausalDiagnostic,
    CausalSink,
    build_causal_order,
)
from repro.analysis.causal.waitfor import (
    WaitForGraph,
    build_wait_graph,
    detect_deadlocks,
)
from repro.analysis.invariants import check_stream

__all__ = [
    "CausalDiagnostic",
    "CausalSink",
    "WaitForGraph",
    "build_causal_order",
    "build_wait_graph",
    "check_stream",
    "detect_deadlocks",
]
