"""The teardown trace judge of ``tests/conftest.py`` has teeth.

Each case runs one test in a fresh pytest process whose conftest is the
suite's own judge.  The test leaves one REQUEST delivered and never
ACCEPTed, so the judge's strict completion rule reports it, on the
simulator and on real sockets alike.  The last test holds the
``expect_violations`` marker to the few that may use it.
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


#: The same open cell on real sockets: a run stopped once the server
#: holds the REQUEST (a pingpong stopped at its client's finish leaves
#: the last ACCEPT unacknowledged only when the ACK is slower than the
#: stop, which wall-clock scheduling does not promise).
OPEN_ON_REAL_SOCKETS = """
from tests.conftest import RecordingServer, SINK_PATTERN, make_pair
from repro.netreal.node import RealNetwork


def test_leaves_a_cell_open_on_real_sockets():
    def body(api, self):
        yield from api.signal(api.server_sig(0, SINK_PATTERN))

    net = RealNetwork(seed=1)
    try:
        server, _client = make_pair(net, RecordingServer(), body)
        assert net.run_until(lambda: server.events, timeout=20_000_000.0)
    finally:
        net.close()
"""


@pytest.fixture
def judged(pytester, monkeypatch):
    """Run ``body`` (the open-cell test by default) under ``marker``
    and return the outcome."""
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    )
    pytester.makeconftest(
        "from tests.conftest import _trace_invariant_judge  # noqa: F401\n"
    )

    def run(marker="", body=LEAVES_A_CELL_OPEN):
        pytester.makepyfile(body.format(marker=marker))
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


def test_an_undrained_real_socket_run_fails_at_teardown(judged):
    result = judged(body=OPEN_ON_REAL_SOCKETS)
    result.assert_outcomes(passed=1, errors=1)
    result.stdout.fnmatch_lines([f"*INV-COMPLETE [[]mid=0[]] {OPEN_CELL}*"])


#: Who may call the ``expect_violations`` marker, as (file, enclosing
#: function): the judge and its own tests, and the two seeded bugs.
#: Every other test drains; ``test_live_judging.cell_param`` left the
#: list when ROADMAP item 1(b)'s stranded EXCHANGE was fixed.
MARKER_USERS = {
    ("tests/conftest.py", "_trace_invariant_judge"),
    ("tests/test_trace_judge.py", "test_naming_the_open_cell_passes"),
    ("tests/test_trace_judge.py", "test_naming_a_line_that_never_occurs_fails"),
    ("tests/analysis/test_invariants.py", "test_seeded_ack_bug_is_detected"),
    (
        "tests/analysis/test_causal.py",
        "test_philosophers_noarb_deadlocks_with_the_full_ring",
    ),
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
