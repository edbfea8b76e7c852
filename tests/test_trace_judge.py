"""The teardown trace judge of ``tests/conftest.py`` has teeth.

Each case runs one test in a fresh pytest process whose conftest is the
suite's own judge.  The test leaves one REQUEST delivered and never
ACCEPTed, so the judge's strict completion rule reports it.  The last
test holds the ``expect_violations`` marker to the few that may use it.
"""

import ast
import os
import re
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


#: Who may call the ``expect_violations`` marker, as (file, enclosing
#: function): the judge and its own tests, the two seeded bugs, and the
#: cell whose stranded EXCHANGE is ROADMAP item 1(b).  Every other test
#: drains.
MARKER_USERS = {
    ("tests/conftest.py", "_trace_invariant_judge"),
    ("tests/test_trace_judge.py", "test_naming_the_open_cell_passes"),
    ("tests/test_trace_judge.py", "test_naming_a_line_that_never_occurs_fails"),
    ("tests/analysis/test_invariants.py", "test_seeded_ack_bug_is_detected"),
    (
        "tests/analysis/test_causal.py",
        "test_philosophers_noarb_deadlocks_with_the_full_ring",
    ),
    ("tests/test_live_judging.py", "cell_param"),
}


def test_only_seeded_bugs_and_the_judge_name_violations():
    users = set()
    for path in (ROOT / "tests").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        # (first line with decorators, last line, name), outermost first.
        spans = sorted(
            (min([fn.lineno] + [d.lineno for d in fn.decorator_list]),
             fn.end_lineno, fn.name)
            for fn in ast.walk(ast.parse(text))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for number, line in enumerate(text.splitlines(), 1):
            if re.search(r"expect_violations\(", line):
                inner = [name for start, end, name in spans if start <= number <= end]
                users.add((path.relative_to(ROOT).as_posix(), (inner or [""])[-1]))
    assert users == MARKER_USERS
