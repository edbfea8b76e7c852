"""Benchmark harnesses regenerating the paper's evaluation (Chapter 5).

* :mod:`repro.bench.workloads` — the measurement runs over the §5.5
  programs of :mod:`repro.workloads`: streaming PUT/GET/EXCHANGE with
  MAXREQUESTS outstanding, blocking SIGNALs, queued-accept (port-style)
  servers;
* :mod:`repro.bench.perf_tables` — ``bench obs``, the one producer of
  the whole chapter: the "SODA Performance" table (T1-T3) at the
  paper's twelve sizes, plus the three parts below, each measured,
  rendered and judged by its own module;
* :mod:`repro.bench.breakdown` — the "Breakdown of Communications
  Overhead" table (T4);
* :mod:`repro.bench.comparison` — the §5.5 \\*MOD comparison (C1-C2);
* :mod:`repro.bench.deltat_figure` — the "Typical Delta-t Situations"
  figure (F1);
* :mod:`repro.bench.tables` — plain-text table rendering;
* :mod:`repro.bench.registry` — ``python -m repro bench <name>``: one
  ``BENCHES`` row per committed ``BENCH_<name>.json``, over the six
  bench modules (``perf_tables``, ``transport``, ``kv``, ``durability``,
  ``chaos``, ``real``).

This ``__init__`` re-exports nothing: importing one harness loads that
harness and what it needs, never its neighbours (DESIGN.md §7).

The model's results are measured here; the implementation's cost (wall
clock, events per second, Python calls) is ``perf/``'s.
"""
