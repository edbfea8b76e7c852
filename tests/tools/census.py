"""A call census of ``src/repro``: which functions does a run never call?

A pytest plugin, not a tier-1 gate.  From the repo root::

    PYTHONPATH=src:tests/tools python -m pytest -p census -q \\
        --deselect tests/integration/test_soak.py::test_whole_system_soak

A ``sys.setprofile`` hook notes every code object called, in this
process and, through ``sitecustomize.py`` beside this file, in every
Python child it starts (``python -m repro …`` and its ``real-node``
children inherit ``CENSUS_DIR`` and ``PYTHONPATH``).  Each process
writes what it saw to ``CENSUS_DIR/<pid>.json`` at exit; the session
unions the files and prints every ``def`` under ``src/repro`` that none
of them called and that :data:`KEEP` does not name.

The hook is installed again before and after every test phase: a test
that runs ``cProfile`` turns ``sys.setprofile`` off when it disables
its profiler, and without the re-install the rest of the session would
go uncounted.  The hook slows every process it counts, so a test that
bounds wall-clock time over real sockets may fail under it; the census
is printed all the same.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import tempfile
import threading
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, Optional, Set, Tuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ENV = "CENSUS_DIR"

#: Functions no tier-1 run calls that stay, each with what runs it.  A
#: key is ``path`` (every def of the file under ``src/repro``) or
#: ``path::qualname``, which also keeps the defs nested in that one.
KEEP: Dict[str, str] = {
    "sim/interface.py": "Protocol stubs: a type checker reads them",
    "durability/disk.py::Disk":
        "the abstract byte store: SimDisk, FileDisk and FaultDisk override it",
    "analysis/rules.py::LintRule.check": "abstract: every rule overrides it",
    "bench/real.py": "CI's `bench real --check` (wall clock, loopback UDP)",
    "bench/chaos.py::run": "CI's `bench chaos --check`; tier-1 sweeps via `body`",
    "bench/chaos.py::render": "CI's `bench chaos --check`",
    "netreal/runner.py::_kill_group": "a child that outlives terminate()",
    "netreal/udp.py::_NicProtocol.error_received": "asyncio, on an ICMP error",
    "core/client.py::_as_generator.<locals>.empty":
        "a program section written as a plain function",
    "extensions/bidding.py::BiddingServerMixin.service_handler":
        "the hook a bidding server overrides",
    "extensions/multipacket.py::BlockReceiverMixin.on_block":
        "the hook a block receiver overrides",
}

#: Method names kept wherever they are: debug aids a failing assertion,
#: a log line or a debugger calls.
KEEP_NAMES = {"__repr__", "__str__"}

Key = Tuple[str, int, str]  # (path under src/repro, first line, qualname)


def _key(code: CodeType) -> Key:
    return (
        Path(code.co_filename).resolve().relative_to(SRC).as_posix(),
        code.co_firstlineno,
        code.co_qualname,
    )


def _functions(code: CodeType) -> Iterator[CodeType]:
    """The ``def``s nested in ``code``: no class body (it has no
    ``CO_NEWLOCALS``), lambda or comprehension."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def defined() -> Dict[Key, int]:
    """Every ``def`` under ``src/repro``: key -> its line count."""
    out: Dict[Key, int] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for code in _functions(module):
            lines = [line for _, _, line in code.co_lines() if line]
            out[_key(code)] = max(lines) - code.co_firstlineno + 1
    return out


_seen: Set[CodeType] = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def install() -> None:
    """(Re)install the profile hook, for this thread and new ones."""
    threading.setprofile(_hook)
    sys.setprofile(_hook)


def dump() -> None:
    """Write this process's called ``src/repro`` functions."""
    sys.setprofile(None)
    called = []
    for code in list(_seen):
        try:
            called.append(_key(code))
        except ValueError:  # not under src/repro
            continue
    out = Path(os.environ[ENV]) / f"{os.getpid()}.json"
    out.write_text(json.dumps(called))


def start() -> None:
    """Count this process until it exits (``sitecustomize`` calls it)."""
    install()
    atexit.register(dump)


def keep_entry(key: Key) -> Optional[str]:
    """The :data:`KEEP` key that keeps ``key``'s function, if any."""
    path, _, qualname = key
    if path in KEEP:
        return path
    parts = qualname.split(".")
    for end in range(len(parts), 0, -1):
        entry = f"{path}::{'.'.join(parts[:end])}"
        if entry in KEEP:
            return entry
    return None


def never_called(census_dir: Path) -> Tuple[Dict[Key, int], Set[str]]:
    """The functions no process called and nothing keeps, and the
    :data:`KEEP` entries that keep no function (stale)."""
    called: Set[Key] = set()
    for path in census_dir.glob("*.json"):
        called.update(tuple(key) for key in json.loads(path.read_text()))
    missing = {}
    used = set()
    for key, size in defined().items():
        entry = keep_entry(key)
        if entry is not None:
            used.add(entry)
        elif key not in called and key[2].rsplit(".", 1)[-1] not in KEEP_NAMES:
            missing[key] = size
    return missing, set(KEEP) - used


# -- the pytest plugin --------------------------------------------------------


def pytest_configure(config):
    os.environ[ENV] = tempfile.mkdtemp(prefix="census-")
    install()


def pytest_runtest_setup(item):
    install()


def pytest_runtest_call(item):
    install()


def pytest_runtest_teardown(item):
    install()


def pytest_terminal_summary(terminalreporter):
    dump()
    census_dir = Path(os.environ[ENV])
    missing, stale = never_called(census_dir)
    files = len(list(census_dir.glob("*.json")))
    report = terminalreporter
    report.section("call census")
    report.write_line(
        f"{len(missing)} function(s), {sum(missing.values())} line(s) under "
        f"src/repro never called ({files} process(es); {len(KEEP)} keep "
        f"entries, {sorted(KEEP_NAMES)} kept by name)"
    )
    for (path, line, qualname), size in sorted(missing.items()):
        report.write_line(f"  {path}:{line} {qualname} ({size} lines)")
    for entry in sorted(stale):
        report.write_line(f"  stale keep entry: {entry}")
