"""The teardown trace judge of ``tests/conftest.py`` has teeth.

Each case runs one test in a fresh pytest process whose conftest is the
suite's own judge.  The test leaves one REQUEST delivered and never
ACCEPTed, so the judge's strict completion rule reports it.
"""

import os
from pathlib import Path

import pytest

pytest_plugins = ("pytester",)

ROOT = Path(__file__).resolve().parents[1]
OPEN_CELL = "request <1,0> left in state 'delivered'"

LEAVES_A_CELL_OPEN = """
import pytest

from tests.conftest import RecordingServer, SINK_PATTERN, make_pair
from repro.core import Network


{marker}
def test_leaves_a_cell_open():
    def body(api, self):
        yield from api.signal(api.server_sig(0, SINK_PATTERN))

    net = Network(seed=1)
    make_pair(net, RecordingServer(), body)
    net.run(until=1_000_000.0)
"""


@pytest.fixture
def judged(pytester, monkeypatch):
    """Run the open-cell test under ``marker`` and return the outcome."""
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    )
    pytester.makeconftest(
        "from tests.conftest import _trace_invariant_judge  # noqa: F401\n"
    )

    def run(marker=""):
        pytester.makepyfile(LEAVES_A_CELL_OPEN.format(marker=marker))
        return pytester.runpytest_subprocess("-p", "no:cacheprovider")

    return run


def test_an_open_delivered_cell_fails_at_teardown(judged):
    result = judged()
    result.assert_outcomes(passed=1, errors=1)
    result.stdout.fnmatch_lines([f"*INV-COMPLETE [[]mid=0[]] {OPEN_CELL}*"])


def test_naming_the_open_cell_passes(judged):
    judged(f'@pytest.mark.expect_violations("{OPEN_CELL}")').assert_outcomes(
        passed=1
    )


def test_naming_a_line_that_never_occurs_fails(judged):
    never = "request <1,9> left in state 'accepted'"
    result = judged(
        f'@pytest.mark.expect_violations("{OPEN_CELL}", "{never}")'
    )
    result.assert_outcomes(passed=1, errors=1)
    result.stdout.fnmatch_lines([f"*expected, not seen: {never!r}*"])
