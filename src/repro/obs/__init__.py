"""repro.obs — the observability subsystem.

The paper's entire evaluation (Chapter 5) is measurement: latency vs.
payload for PUT/GET/EXCHANGE, the 7.1 ms SIGNAL cost breakdown, SODA
vs. \\*MOD.  This package makes measurement a first-class subsystem
instead of ad-hoc test code:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and deterministic exact-quantile histograms (the simulation is
  deterministic, so no sampling is needed);
* :mod:`repro.obs.spans` — per-transaction span reconstruction
  (REQUEST → delivered → ACCEPT → complete, keyed by requester TID)
  from retained :class:`~repro.sim.tracing.Tracer` records;
* :mod:`repro.obs.instrument` — :class:`MetricsHub`, which turns a run
  (live, through a tracer's :class:`~repro.sim.tracing.SinkTable`) into
  a populated registry plus spans;
* :mod:`repro.obs.export` — console tables, JSONL, and the
  ``BENCH_*.json`` snapshot writer used by ``python -m repro``.

Metrics collection is **zero-overhead by default**: nothing here runs
unless a hub is installed on a network, and the per-layer
counters it reads (``BroadcastBus.busy_time_us``, the NIC frame/byte
counters, the cost ledger) are the ones the simulation already
maintains.
"""
