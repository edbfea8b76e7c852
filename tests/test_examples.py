"""Smoke tests: every example script runs clean.

Examples are documentation that executes; these tests keep them honest.

``test_deltat_scenarios`` and ``test_performance_tables_quick`` went
with ``examples/deltat_scenarios.py`` and
``examples/performance_tables.py``: ``python -m repro bench obs``
prints and judges the same Delta-t scenarios, tables, breakdown and
\\*MOD comparison (``tests/bench/test_registry.py::
test_fresh_run_reproduces_the_committed_bytes[obs]``).
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 600.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "exchange completed" in out
    assert "frames crossed the bus" in out


def test_typical_network():
    out = run_example("typical_network.py")
    assert "booted worker" in out
    assert "worker answered: 5050" in out
    assert "worker answered: 500500" in out
    assert "worker killed" in out
    assert "sum 1..100 -> 5050" in out


def test_dining_philosophers():
    out = run_example("dining_philosophers.py")
    assert "finished: True" in out
    assert "deadlock(s) broken, stopped: True" in out


def test_readers_writers():
    out = run_example("readers_writers.py")
    assert "invariant violations: 0" in out
    assert "operations completed: 25/25" in out


def test_csp_pipeline():
    out = run_example("csp_pipeline.py")
    assert "pipeline delivered: [6, 14, 22, 50]" in out
