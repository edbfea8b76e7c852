"""Multi-process runner: one OS process per SODA node.

``python -m repro real <workload>`` drives the parent side; each child
is ``python -m repro real-node ...`` (internal; its argument list is
built from, and parsed by, the one ``COMMANDS["real-node"]`` row).  The
choreography:

1. parent opens a TCP *control socket* on loopback and spawns one child
   per workload role;
2. each child builds a single-node :class:`~repro.netreal.node.
   RealNetwork`, binds its UDP socket, and sends ``hello`` (mid + port);
3. once all hellos are in, the parent broadcasts ``start``: the full
   MID -> address registry, a shared CLOCK_MONOTONIC *epoch* a moment
   in the future, and the horizon; every child anchors t=0µs to that
   epoch, so boot offsets and trace timestamps agree across processes;
4. children run to the horizon, dump their traces as JSONL
   (:mod:`repro.netreal.trace_io`), report ``done``, and exit;
5. the parent merges the traces by wall-clock timestamp and replays the
   merged stream into a chaos cell's own judges
   (:class:`~repro.chaos.runner.CellJudges`, causal engine included):
   a real run returns the :class:`~repro.chaos.runner.CellResult` a sim
   cell does.  Its liveness column is the runner's own problems (an
   early exit, a timeout, a missing or torn trace) plus the span half
   of the sim's; the node half reads live kernel tables, which only a
   sim cell has at its horizon.

Each child builds its node with :func:`repro.workloads.place` — the
same spec and role program a sim run gets, a durable role's disk as
real files in the run directory — and applies the named chaos schedule
(:func:`real_schedule`): network actions turn the child's own
:class:`~repro.net.errors.FaultPlan`, which governs its sends, and role
actions fire only in the child hosting the role.

Every wait carries a hard timeout and stragglers are killed: a wedged
child can fail the run but never hang it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.chaos.liveness import pending_spans
from repro.chaos.runner import (
    CellJudges,
    CellResult,
    chaos_config,
    fault_counts,
    make_schedule,
)
from repro.chaos.scenario import Scenario, TargetedDrop, ThunderingHerd
from repro.cli import COMMANDS, flag_argv
from repro.durability.disk import FileDisk
from repro.netreal.node import RealNetwork
from repro.netreal.trace_io import dump_trace, merge_traces
from repro.workloads import REAL_WORKLOADS, WorkloadSpec, get_spec, place

#: Seconds between spawning children and the shared epoch.
START_GRACE_S = 0.75

#: Seconds past the horizon before stragglers are declared wedged.
DONE_GRACE_S = 15.0


def _kill_group(child: subprocess.Popen) -> None:
    """SIGKILL a child's whole process group (it leads its own session)."""
    if child.poll() is not None:
        return
    try:
        os.killpg(os.getpgid(child.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):  # pragma: no cover
        child.kill()


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


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------


def judge_traces(
    trace_paths: Sequence[Path],
    node: Dict[str, Any],
    horizon: float,
    problems: List[str],
) -> CellResult:
    """Merge the per-node trace files and judge them as a chaos cell.

    ``node`` names the run (workload, seed, schedule) and ``problems``
    are the runner's own; a missing or torn file joins them, and the
    records that were written are judged all the same."""
    present = [mid for mid, path in enumerate(trace_paths) if path.exists()]
    metas, merged, ledger = merge_traces([trace_paths[m] for m in present])
    problems = problems + [
        f"node {mid} wrote no trace"
        for mid in range(len(trace_paths))
        if mid not in present
    ] + [
        f"node {mid}'s trace is torn: {meta['torn']} of "
        f"{meta.get('records', '?')} records"
        for mid, meta in zip(present, metas)
        if "torn" in meta
    ]
    judges = CellJudges(chaos_config(), causal=True)
    judges.table.replay(merged)
    faults: Dict[str, int] = {}
    for meta in metas:
        for key, value in meta.get("faults", {}).items():
            faults[key] = faults.get(key, 0) + value
    return judges.verdict(
        node["workload"], node["schedule"], node["seed"], horizon, ledger,
        liveness=lambda spans: problems + pending_spans(spans, horizon),
        selfheal=[],  # no real workload is supervised
        faults=faults,
        frames_sent=sum(meta.get("frames_sent", 0) for meta in metas),
    )


async def _parent(
    node: Dict[str, Any], trace_dir: Path, out
) -> CellResult:
    """``node`` is what every child is told, keyed as the ``real-node``
    row of ``COMMANDS`` names it: workload, seed, schedule."""
    workload, schedule = node["workload"], node["schedule"]
    spec = get_spec(workload, REAL_WORKLOADS)
    horizon = real_schedule(schedule, spec).horizon(spec)
    count = len(spec.roles)
    problems: List[str] = []

    hellos: Dict[int, Dict[str, Any]] = {}
    dones: Dict[int, Dict[str, Any]] = {}
    writers: Dict[int, asyncio.StreamWriter] = {}
    progress = asyncio.Event()

    async def handle(reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                message = json.loads(line)
                if "hello" in message:
                    hello = message["hello"]
                    hellos[int(hello["mid"])] = hello
                    writers[int(hello["mid"])] = writer
                elif "done" in message:
                    done = message["done"]
                    dones[int(done["mid"])] = done
                    progress.set()
                    return  # the child is about to exit
                progress.set()
        except (ConnectionError, asyncio.CancelledError):
            return
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    control_port = server.sockets[0].getsockname()[1]

    trace_paths = [trace_dir / f"trace-{mid}.jsonl" for mid in range(count)]
    children: List[subprocess.Popen] = []
    for mid in range(count):
        argv = [sys.executable, "-m", "repro", "real-node"] + flag_argv(
            COMMANDS["real-node"].flags,
            {
                **node,
                "role": mid,
                "control": control_port,
                "trace": trace_paths[mid],
            },
        )
        # Each child leads its own session/process group so a wedged
        # child — including anything it may have forked — can be killed
        # as a group rather than orphaned.
        children.append(subprocess.Popen(argv, start_new_session=True))

    async def gather(
        have, needed: int, timeout_s: float, phase: str
    ) -> bool:
        deadline = time.monotonic() + timeout_s
        while len(have) < needed:
            dead = [
                mid
                for mid, child in enumerate(children)
                if child.poll() is not None and mid not in dones
            ]
            if dead:
                problems.append(
                    f"{phase}: node process(es) {dead} exited early "
                    f"(exit codes {[children[m].poll() for m in dead]})"
                )
                return False
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                wedged = sorted(
                    mid for mid in range(len(children)) if mid not in have
                )
                problems.append(
                    f"{phase}: timed out after {timeout_s:.0f}s waiting "
                    f"for node process(es) {wedged}; killing their "
                    f"process groups"
                )
                for mid in wedged:
                    _kill_group(children[mid])
                return False
            progress.clear()
            try:
                await asyncio.wait_for(
                    progress.wait(), timeout=min(remaining, 0.2)
                )
            except asyncio.TimeoutError:
                pass
        return True

    try:
        if await gather(hellos, count, 30.0, "startup"):
            registry = {
                str(mid): ["127.0.0.1", int(hello["port"])]
                for mid, hello in hellos.items()
            }
            start = {
                "start": {
                    "registry": registry,
                    "epoch_monotonic": time.monotonic() + START_GRACE_S,
                    "horizon_us": horizon,
                }
            }
            payload = (json.dumps(start) + "\n").encode("utf-8")
            for mid in sorted(writers):
                writers[mid].write(payload)
                await writers[mid].drain()
            out(
                f"real: {workload} across {count} OS process(es) "
                f"[schedule={schedule}, horizon={horizon / 1e6:.1f}s]"
            )
            await gather(
                dones,
                count,
                START_GRACE_S + horizon / 1e6 + DONE_GRACE_S,
                "run",
            )
    finally:
        server.close()
        await server.wait_closed()
        # Children that reported done exit on their own momentarily;
        # give them that moment before reaching for terminate().
        for mid, child in enumerate(children):
            if mid in dones:
                try:
                    child.wait(timeout=5)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
        for child in children:
            if child.poll() is None:
                child.terminate()
        for child in children:
            try:
                child.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                _kill_group(child)
                child.wait()

    failed = [
        mid
        for mid, child in enumerate(children)
        if child.returncode != 0 or mid not in dones
    ]
    if failed and not problems:
        problems.append(
            f"node process(es) {failed} did not finish cleanly"
        )

    return judge_traces(trace_paths, node, horizon, problems)


def run_real(
    workload: str,
    seed: int = 1,
    schedule: str = "calm",
    out=print,
    keep_traces: Optional[str] = None,
) -> CellResult:
    """Run one workload under a chaos schedule across real OS processes
    and judge the merge.

    The traces, and the files of each durable role's disk, go under
    ``keep_traces`` or a temporary directory.
    """
    node = {"workload": workload, "seed": seed, "schedule": schedule}
    if keep_traces:
        trace_dir = Path(keep_traces)
        trace_dir.mkdir(parents=True, exist_ok=True)
        return asyncio.run(_parent(node, trace_dir, out))
    with tempfile.TemporaryDirectory(prefix="repro-real-") as tmp:
        return asyncio.run(_parent(node, Path(tmp), out))


# ---------------------------------------------------------------------------
# child (``python -m repro real-node``, internal)
# ---------------------------------------------------------------------------


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
