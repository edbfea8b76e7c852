"""Every ``repro`` name the benchmark uses, imported in one place.

The benchmark only *calls* public functions of ``repro`` and times them
from outside.  A refactor that moves one of these names (ROADMAP item 4
moves the workload registry) either keeps the import path below alive or
is preceded by a benchmark issue that edits this one file.

Importing this module puts the checkout's own ``src/`` first on
``sys.path``, so the benchmark measures the code next to it and never an
installed copy of ``repro``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.causal import build_causal_order, check_stream  # noqa: E402
from repro.analysis.invariants import check_network  # noqa: E402
from repro.analysis.workloads import WORKLOADS, build_workload  # noqa: E402
from repro.bench.workloads import (  # noqa: E402
    AcceptingServer,
    BlockingSignaler,
    StreamingRequester,
)
from repro.chaos.liveness import (  # noqa: E402
    check_degradation,
    check_liveness,
    percentile,
)
from repro.chaos.runner import (  # noqa: E402
    DEFAULT_DEGRADATION_BOUNDS,
    DEGRADATION_BOUNDS,
    SCHEDULES,
    CellResult,
    chaos_config,
    make_schedule,
    run_cell,
)
from repro.chaos.scenario import GRACE_US  # noqa: E402
from repro.core.boot import ProgramImage  # noqa: E402
from repro.core.config import KernelConfig  # noqa: E402
from repro.core.node import Network  # noqa: E402
from repro.durability.disk import DiskFaultPlan, FaultDisk, SimDisk  # noqa: E402
from repro.obs.spans import build_spans  # noqa: E402
from repro.recovery.convergence import check_self_heal, recovery_summary  # noqa: E402
from repro.recovery.supervisor import SupervisedService  # noqa: E402
from repro.replication import (  # noqa: E402
    REPL_PATTERN,
    KvClient,
    KvFailoverSupervisor,
    KvReplica,
    check_kv_consistency,
    kv_summary,
)
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.tracing import CostLedger  # noqa: E402

__all__ = [
    "DEFAULT_DEGRADATION_BOUNDS",
    "DEGRADATION_BOUNDS",
    "GRACE_US",
    "REPL_PATTERN",
    "SCHEDULES",
    "WORKLOADS",
    "AcceptingServer",
    "BlockingSignaler",
    "CellResult",
    "CostLedger",
    "DiskFaultPlan",
    "FaultDisk",
    "KernelConfig",
    "KvClient",
    "KvFailoverSupervisor",
    "KvReplica",
    "Network",
    "ProgramImage",
    "SimDisk",
    "Simulator",
    "StreamingRequester",
    "SupervisedService",
    "build_causal_order",
    "build_spans",
    "build_workload",
    "chaos_config",
    "check_degradation",
    "check_kv_consistency",
    "check_liveness",
    "check_network",
    "check_self_heal",
    "check_stream",
    "kv_summary",
    "make_schedule",
    "percentile",
    "recovery_summary",
    "run_cell",
]
