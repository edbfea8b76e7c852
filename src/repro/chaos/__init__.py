"""Deterministic chaos testing for the SODA protocol stack.

Composes timed fault schedules (:mod:`repro.chaos.scenario`) over the
named workloads, sweeps (workload × schedule × seed) cells
(:mod:`repro.chaos.runner`), judges every run with the invariant
checker plus liveness assertions (:mod:`repro.chaos.liveness`), and
shrinks failures to minimal ready-to-paste reproducers
(:mod:`repro.chaos.shrink`).

CLI: ``python -m repro chaos [--matrix] [--seed N] [--json PATH]``.
See ``docs/CHAOS.md``.
"""
