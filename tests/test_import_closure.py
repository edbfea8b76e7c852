"""What each entry point loads (DESIGN.md §7).

A package ``__init__`` re-exports nothing, so importing one module loads
that module and its real dependencies, never its package's neighbours.
Each entry point is started in a fresh interpreter under ``-X
importtime`` and its ``repro`` module set is held to what it runs: none
of the tooling or example programs no run calls, and at most a ceiling
of modules.  A re-export, or a module-level import that drags one of
them back in, fails here.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Set

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Tooling and example programs: every ``repro.bench`` harness (the
#: measurement runs, the table renderer and the registry excepted),
#: sodalint, the *MOD baseline, every facility but the time service and
#: every app but the philosophers (a registry workload places them).
TOOLING = re.compile(
    r"repro\.("
    r"bench\.(?!(tables|registry|workloads)$)"
    r"|analysis\.(linter|rules|model)$"
    r"|baselines(\.|$)"
    r"|facilities\.(?!timeservice$)"
    r"|apps\.(?!philosophers$)"
    r")"
)

#: Entry point -> (arguments after ``python -X importtime``, working
#: directory, module ceiling: 2 to 7 above the count when this was
#: written, which DESIGN.md §7 tabulates).
ENTRY_POINTS = {
    "Network": (["-c", "from repro.core.node import Network"], ROOT, 33),
    "run_cell": (["-c", "from repro.chaos.runner import run_cell"], ROOT, 67),
    "perf": (["-c", "import workloads"], ROOT / "perf", 70),
    "help": (["-m", "repro", "--help"], ROOT, 40),
    # What ``python -m repro real-node ...`` does before it runs: build
    # the parser, import the row's module.
    "real-node": (
        [
            "-c",
            "import importlib\n"
            "from repro.cli import COMMANDS, build_parser\n"
            "build_parser()\n"
            "importlib.import_module(COMMANDS['real-node'].run.split(':')[0])",
        ],
        ROOT,
        75,
    ),
}


def loaded(name: str) -> Set[str]:
    """The ``repro`` modules entry point ``name`` imports, fresh."""
    args, cwd, _ = ENTRY_POINTS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    names = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return {n for n in names if n == "repro" or n.startswith("repro.")}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_an_entry_point_loads_what_it_runs(name):
    modules = loaded(name)
    assert modules, "no repro module imported: is -X importtime honoured?"
    assert sorted(filter(TOOLING.match, modules)) == []
    assert len(modules) <= ENTRY_POINTS[name][2], sorted(modules)


def test_help_loads_no_run_stack():
    """``--help`` builds the parser from the command table: the kernel
    comes with ``repro``'s quickstart names, nothing past it does."""
    stacks = re.compile(
        r"repro\.(chaos|analysis|apps|facilities|replication|durability"
        r"|netreal)(\.|$)"
    )
    assert sorted(filter(stacks.match, loaded("help"))) == []
