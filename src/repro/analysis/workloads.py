"""Old import path of the workload registry, which is
:mod:`repro.workloads`; kept only while the benchmark imports it."""

from repro.workloads import WORKLOADS, build_workload

__all__ = ["WORKLOADS", "build_workload"]
