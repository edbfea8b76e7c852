"""One node process of a real run (``python -m repro real-node ...``).

The parent, :mod:`repro.netreal.runner`, spawns one per workload role
with the argument list the ``COMMANDS["real-node"]`` row builds.  A
child is a kernel, its role's program and the fault schedule, as a SODA
node is a kernel and its client program: it builds a single-node
:class:`~repro.netreal.node.RealNetwork` under the chaos kernel
configuration, places its one role with :func:`repro.workloads.place`
(a durable role's disk as real files in the run directory), applies the
named schedule (:func:`real_schedule`: network actions turn the child's
own :class:`~repro.net.errors.FaultPlan`, which governs its sends, and
role actions fire only in the child hosting the role), says ``hello``
on the control socket, runs from the shared epoch to the horizon, dumps
its trace and reports ``done``.

It imports no judge: the parent judges the merged traces
(``tests/test_import_closure.py`` pins the child's module set).
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.chaos.scenario import (
    Scenario,
    TargetedDrop,
    ThunderingHerd,
    chaos_config,
    fault_counts,
    make_schedule,
)
from repro.durability.disk import FileDisk
from repro.netreal.node import RealNetwork
from repro.netreal.trace_io import dump_trace
from repro.workloads import REAL_WORKLOADS, WorkloadSpec, get_spec, place


#: Actions a run with one node per OS process cannot honour, and why.
UNFIT_ACTIONS = {
    TargetedDrop: "counts frames network-wide",
    ThunderingHerd: "adds nodes that no process hosts",
}


def real_schedule(name: str, spec: WorkloadSpec) -> Scenario:
    """The named chaos schedule for a real run of ``spec``: KeyError if
    unknown, ValueError naming an action in :data:`UNFIT_ACTIONS`."""
    scenario = make_schedule(name, spec)
    for action in scenario.actions:
        if type(action) in UNFIT_ACTIONS:
            raise ValueError(
                f"schedule {name!r} does not fit the real backend: "
                f"{type(action).__name__} {UNFIT_ACTIONS[type(action)]}"
            )
    return scenario


async def _child(net: RealNetwork, ns) -> None:
    spec = get_spec(ns.workload, REAL_WORKLOADS)
    role = spec.roles[ns.role]
    # A durable role keeps its WAL and snapshots as real files in the
    # run directory, next to the trace.
    run_dir = os.path.dirname(ns.trace)
    built = place(
        net, spec, mids=(ns.role,),
        media=lambda durable: FileDisk(os.path.join(run_dir, durable.name)),
    )
    real_schedule(ns.schedule, spec).apply(built)
    addresses = await net.open()

    reader, writer = await asyncio.open_connection("127.0.0.1", ns.control)
    hello = {"hello": {"mid": ns.role, "port": addresses[ns.role][1]}}
    writer.write((json.dumps(hello) + "\n").encode("utf-8"))
    await writer.drain()

    line = await asyncio.wait_for(reader.readline(), timeout=60.0)
    if not line:
        raise RuntimeError("control socket closed before start")
    start = json.loads(line)["start"]
    net.bus.set_registry(
        {int(mid): tuple(addr) for mid, addr in start["registry"].items()}
    )
    await net.run_async(
        float(start["horizon_us"]),
        epoch_monotonic=float(start["epoch_monotonic"]),
    )

    records = list(net.sim.trace.records)
    dump_trace(
        ns.trace,
        records,
        meta={
            "mid": ns.role,
            "role": role.name,
            "workload": ns.workload,
            "seed": ns.seed,
            "schedule": ns.schedule,
            "ledger": net.ledger.snapshot(),
            "faults": fault_counts(net),
            "frames_sent": net.bus.frames_sent,
            "records": len(records),
        },
    )
    done = {"done": {"mid": ns.role, "records": len(records)}}
    writer.write((json.dumps(done) + "\n").encode("utf-8"))
    await writer.drain()
    writer.close()
    net.bus.close()


def run_real_node(ns) -> int:
    """Entry point for one node process (not for interactive use)."""
    # The kernel configuration a chaos cell runs under, on either backend.
    net = RealNetwork(seed=ns.seed, config=chaos_config())
    try:
        # The whole child — control handshake included — runs on the
        # scheduler's own event loop: the UDP endpoints and kernel
        # timers must share one loop.
        net.sim.loop.run_until_complete(_child(net, ns))
    finally:
        net.close()
    return 0
