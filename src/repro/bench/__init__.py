"""Benchmark harnesses regenerating the paper's evaluation (Chapter 5).

* :mod:`repro.bench.workloads` — the measurement runs over the §5.5
  programs of :mod:`repro.workloads`: streaming PUT/GET/EXCHANGE with
  MAXREQUESTS outstanding, blocking SIGNALs, queued-accept (port-style)
  servers;
* :mod:`repro.bench.perf_tables` — the "SODA Performance" table (T1-T3);
* :mod:`repro.bench.breakdown` — the "Breakdown of Communications
  Overhead" table (T4);
* :mod:`repro.bench.comparison` — the §5.5 \\*MOD comparison (C1-C2);
* :mod:`repro.bench.deltat_figure` — the "Typical Delta-t Situations"
  figure (F1);
* :mod:`repro.bench.tables` — plain-text table rendering;
* :mod:`repro.bench.registry` — ``python -m repro bench <name>``: one
  ``BENCHES`` row per committed ``BENCH_<name>.json``, over the five
  bench modules (``perf_tables``, ``transport``, ``kv``, ``durability``,
  ``real``).  Not imported here: those pull in the chaos and
  real-socket stacks.

The model's results are measured here; the implementation's cost (wall
clock, events per second, Python calls) is ``perf/``'s.
"""

from repro.bench.breakdown import (
    BREAKDOWN_PAPER_MS,
    BreakdownResult,
    measure_signal_breakdown,
)
from repro.bench.comparison import ComparisonRow, measure_comparison
from repro.bench.deltat_figure import ScenarioResult, deltat_scenarios
from repro.bench.perf_tables import (
    PAPER_PERFORMANCE_MS,
    WORD_SIZES,
    PerfRow,
    generate_performance_table,
)
from repro.bench.tables import format_table
from repro.bench.workloads import StreamResult, run_blocking_signals, run_stream

__all__ = [
    "BREAKDOWN_PAPER_MS",
    "BreakdownResult",
    "ComparisonRow",
    "PAPER_PERFORMANCE_MS",
    "PerfRow",
    "ScenarioResult",
    "StreamResult",
    "WORD_SIZES",
    "deltat_scenarios",
    "format_table",
    "generate_performance_table",
    "measure_comparison",
    "measure_signal_breakdown",
    "run_blocking_signals",
    "run_stream",
]
