"""Shared fixtures and helper programs for the test suite."""

from __future__ import annotations

from typing import Callable, List, Optional

import pytest

from repro.core import Buffer, ClientProgram, KernelConfig, Network
from repro.core.patterns import make_well_known_pattern

#: A well-known pattern used by the generic echo/sink servers below.
ECHO_PATTERN = make_well_known_pattern(0o1234)
SINK_PATTERN = make_well_known_pattern(0o1235)


class EchoServer(ClientProgram):
    """Accepts every arrival, echoing received bytes back uppercased.

    Exercises EXCHANGE in both directions; also serves PUT (no reply
    data) and GET (replies with its ``greeting``).
    """

    def __init__(self, pattern=ECHO_PATTERN, greeting: bytes = b"hello") -> None:
        self.pattern = pattern
        self.greeting = greeting
        self.received: List[bytes] = []
        self.arrivals = 0

    def initialization(self, api, parent_mid):
        yield from api.advertise(self.pattern)

    def handler(self, api, event):
        if not event.is_arrival:
            return
        self.arrivals += 1
        inbuf = Buffer(event.put_size)
        if event.put_size > 0:
            yield from api.accept_current_exchange(
                get=inbuf, put=self.greeting if event.get_size else None
            )
            self.received.append(inbuf.data)
        else:
            yield from api.accept_current(
                put=self.greeting if event.get_size else None
            )


class ScriptedClient(ClientProgram):
    """Runs a user-supplied task body; records its return value."""

    def __init__(self, body: Callable) -> None:
        self.body = body
        self.result = None
        self.finished = False
        self.error: Optional[BaseException] = None

    def task(self, api):
        try:
            self.result = yield from self.body(api, self)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            self.error = exc
            raise
        finally:
            self.finished = True
        yield from api.serve_forever()


class RecordingServer(ClientProgram):
    """Advertises a pattern and records every handler event without
    accepting; tests drive ACCEPTs explicitly via ``actions``."""

    def __init__(self, pattern=SINK_PATTERN) -> None:
        self.pattern = pattern
        self.events = []

    def initialization(self, api, parent_mid):
        yield from api.advertise(self.pattern)

    def handler(self, api, event):
        self.events.append(event)
        return
        yield  # pragma: no cover


def pytest_addoption(parser):
    parser.addoption(
        "--check-invariants",
        action="store_true",
        default=False,
        help=(
            "replay every Network trace through the protocol invariant "
            "checker (repro.analysis.invariants) when each test finishes"
        ),
    )


@pytest.fixture(autouse=True)
def _trace_invariant_watch(request, monkeypatch):
    """Opt-in post-test trace replay (docs/ANALYSIS.md).

    Enabled by ``--check-invariants`` or the ``check_invariants`` marker
    (tests/integration applies the marker to everything it collects).
    Tests that seed protocol bugs on purpose opt out with the
    ``no_auto_invariants`` marker.
    """
    opted_in = request.config.getoption("--check-invariants") or (
        request.node.get_closest_marker("check_invariants") is not None
    )
    if not opted_in or request.node.get_closest_marker("no_auto_invariants"):
        yield
        return

    from repro.analysis.invariants import check_network

    seen: List[Network] = []

    def track(method_name):
        original = getattr(Network, method_name)

        def tracked(self, *args, **kwargs):
            if all(net is not self for net in seen):
                seen.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Network, method_name, tracked)

    track("run")
    track("run_until")  # soak-style runs never call plain run()
    yield
    problems = []
    for net in seen:
        # A counters-only trace has nothing to replay: a test that runs
        # one judges it live (``SinkTable(checker).install``) itself.
        # Completion is not judged strictly: a unit test may stop with
        # requests open by design (a server that never ACCEPTs, a run
        # cut by a predicate), as some in tests/core, tests/facilities
        # and tests/apps do.
        if net.sim.trace.keep_records:
            for violation in check_network(net, strict_completion=False):
                problems.append(violation.format())
    if problems:
        pytest.fail(
            "trace invariant violations:\n" + "\n".join(problems),
            pytrace=False,
        )


@pytest.fixture
def network() -> Network:
    return Network(seed=42)


@pytest.fixture
def pipelined_network() -> Network:
    return Network(seed=42, config=KernelConfig(pipelined=True))


def run_to_quiescence(net: Network, until: float = 5_000_000.0) -> None:
    net.run(until=until)


def make_pair(net: Network, server_program, client_body):
    """One server node + one scripted client node; returns (server, client)."""
    net.add_node(program=server_program, name="server")
    client = ScriptedClient(client_body)
    net.add_node(program=client, name="client", boot_at_us=100.0)
    return server_program, client
