"""One workload registry, placed on either backend (DESIGN.md §19).

``repro.workloads`` holds every spec and role program; ``place(net,
spec, mids, media)`` puts a spec's roles on a simulated ``Network`` or a
wall-clock ``RealNetwork`` alike, and the real node process builds its
node, disk and blackout from it.  The analysis package judges traces and
does not import the layers that produce them.
"""

import ast
import random
from pathlib import Path

import pytest

import repro.analysis
from repro.chaos.scenario import PowerLoss, chaos_config
from repro.core.node import Network
from repro.durability.disk import FaultDisk, FileDisk
from repro.netreal.node import RealNetwork
from repro.netreal.udp import UdpNic
from repro.workloads import REAL_WORKLOADS, WORKLOADS, get_spec, place

#: Packages whose code produces traces; ``repro.analysis`` only reads them.
PRODUCERS = (
    "workloads", "replication", "recovery", "durability", "chaos",
    "netreal", "bench", "apps",
)


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
            if node.module == "repro":
                names = [f"repro.{alias.name}" for alias in node.names]
            yield node.lineno, names


def test_analysis_depends_on_traces_only():
    """Only the CLI front end runs workloads; the old-path shim may
    re-export the registry and nothing else."""
    root = Path(repro.analysis.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative == "cli.py":
            continue
        for lineno, modules in _imported_modules(path):
            for module in modules:
                parts = module.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                if parts[1] not in PRODUCERS:
                    continue
                if relative == "workloads.py" and module == "repro.workloads":
                    continue
                offenders.append(f"analysis/{relative}:{lineno} {module}")
    assert offenders == []


def test_place_on_a_real_network_builds_one_role_and_its_disk(tmp_path):
    spec = REAL_WORKLOADS["kvstore"]

    def media(role):
        return FileDisk(str(tmp_path / role.name))

    with RealNetwork(seed=1) as net:
        built = place(net, spec, mids=(1,), media=media)
        assert sorted(net.nodes) == [1]
        node = net.nodes[1]
        assert node.name == "replica1" and isinstance(node.nic, UdpNic)
        assert isinstance(node.disk, FaultDisk)
        assert isinstance(node.disk.inner, FileDisk)
        assert node.disk.inner.root == str(tmp_path / "replica1")
        assert node.disk.plan.rng.getstate() == random.Random(101).getstate()
        assert built.mid_of("replica1") == 1 and built.spec is spec
    client_mid = len(spec.roles) - 1
    with RealNetwork(seed=1) as net:
        place(net, spec, mids=(client_mid,), media=media)
        assert sorted(net.nodes) == [client_mid]
        assert net.nodes[client_mid].disk is None
    assert sorted(path.name for path in tmp_path.iterdir()) == ["replica1"]


def test_power_loss_on_a_one_role_placement_reboots_it_from_its_factory():
    """The real node's scripted blackout, on the simulator: the placed
    node is cut at ``at`` and booted from its role factory 0.5 s later
    (or when its Delta-t quiet period ends, whichever is later)."""
    spec = REAL_WORKLOADS["kvstore"]
    net = Network(seed=1, config=chaos_config())
    built = place(net, spec, mids=(1,))
    PowerLoss(300_000.0, ("replica1",)).apply(built)
    net.run(until=200_000.0)
    first = net.nodes[1].client
    net.run(until=2_000_000.0)

    trace = net.sim.trace
    (crash,) = trace.select("kernel.crash", mid=1)
    assert crash.time == 300_000.0
    boots = [rec.time for rec in trace.select("kernel.boot_handler", mid=1)]
    assert boots[0] == spec.roles[1].boot_at_us
    assert boots[1:] == [max(800_000.0, crash.time + crash["quiet_us"])]
    client = net.nodes[1].client
    assert client is not first and not client.dead
    assert client.program is not first.program
    assert type(client.program) is type(first.program)


def test_one_lookup_serves_every_registry():
    assert get_spec("echo") is WORKLOADS["echo"]
    assert get_spec("kvstore", REAL_WORKLOADS) is REAL_WORKLOADS["kvstore"]
    with pytest.raises(KeyError, match="choose from burst, kvstore, pingpong"):
        get_spec("echo", REAL_WORKLOADS)
