"""Property-based recovery tests: at-most-once across crash + reboot.

The curated recovery schedules pin three crash timings; these
properties explore the crash/reboot timing axes randomly and check the
PR's core safety claim: the safe-retry shim never causes a double
execution *within a server incarnation*, no matter where the crash
lands — an op re-issued after an ambiguous failure may run on the new
incarnation, but the state the lost attempt built died with the old
one (§3.6.1), and each incarnation sees each op at most once.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.liveness import check_liveness
from repro.chaos.runner import RECOVERY_SCHEDULES, run_cell
from repro.core import Buffer, ClientProgram, KernelConfig, Network
from repro.core.patterns import make_well_known_pattern
from repro.recovery import FailureDetector, RetryPolicy, retry_request
from repro.sim.tracing import SinkTable

PATTERN = make_well_known_pattern(0o202)


class _PayloadServer(ClientProgram):
    """One incarnation of the echo service; records what it executed."""

    def __init__(self):
        self.payloads = []

    def initialization(self, api, parent_mid):
        yield from api.advertise(PATTERN)

    def handler(self, api, event):
        if not event.is_arrival:
            return
        buf = Buffer(event.put_size)
        yield from api.accept_current_exchange(get=buf, put=b"pong")
        self.payloads.append(buf.data)


class _SafeRetryClient(ClientProgram):
    """A paced op stream through the retry shim, epoch-gated."""

    def __init__(self, detector, total=4, gap_us=120_000.0):
        self.detector = detector
        self.total = total
        self.gap_us = gap_us
        self.outcomes = []

    def task(self, api):
        policy = RetryPolicy(max_attempts=5, deadline_us=4_000_000.0)
        for i in range(self.total):
            outcome = yield from retry_request(
                api,
                PATTERN,
                put=b"op%d" % i,
                get=16,
                policy=policy,
                detector=self.detector,
            )
            self.outcomes.append(outcome.status)
            yield api.compute(self.gap_us)
        yield from api.serve_forever()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    crash_ms=st.integers(min_value=2, max_value=500),
    reboot_delay_ms=st.integers(min_value=20, max_value=800),
    power_failure=st.booleans(),
)
def test_no_double_execution_per_incarnation(
    seed, crash_ms, reboot_delay_ms, power_failure
):
    net = Network(seed=seed, config=KernelConfig(probe_interval_us=50_000.0))
    incarnations = [_PayloadServer()]
    server_node = net.add_node(program=incarnations[0], name="server")
    detector = FailureDetector()
    SinkTable(detector).install(net)
    client = _SafeRetryClient(detector)
    net.add_node(program=client, boot_at_us=100.0)

    def crash_and_reboot():
        if power_failure:
            server_node.crash()  # whole-kernel loss + quiet period
        else:
            server_node.crash_client()  # DIE: kernel memory survives
        quiet = net.config.deltat.crash_quiet_us if power_failure else 0.0
        incarnations.append(_PayloadServer())
        server_node.client = None
        server_node.install_program(
            incarnations[-1],
            boot_at_us=net.sim.now + quiet + reboot_delay_ms * 1_000.0,
        )

    net.sim.schedule(crash_ms * 1_000.0, crash_and_reboot)
    net.run(until=60_000_000.0)

    # Termination: every logical op reached a verdict and nothing leaks.
    assert len(client.outcomes) == client.total
    assert set(client.outcomes) <= {"completed", "maybe", "failed"}
    problems = check_liveness(net)
    assert problems == [], "\n".join(problems)

    # At-most-once per incarnation: no op payload executed twice within
    # one server lifetime, ever.
    for incarnation in incarnations:
        assert len(incarnation.payloads) == len(set(incarnation.payloads))

    # A FAILED op is *provably* unexecuted: every attempt ended in a
    # non-execution proof (NACK, queued-exhaustion, probe arg=2), so no
    # incarnation may have run it to completion.  (A COMPLETED op's
    # record can legitimately be missing: the DIE may land between the
    # protocol-level ACCEPT and the handler's own bookkeeping.)
    executed = [p for inc in incarnations for p in inc.payloads]
    for i, status in enumerate(client.outcomes):
        if status == "failed":
            assert b"op%d" % i not in executed


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=1, max_value=50),
    schedule=st.sampled_from(sorted(RECOVERY_SCHEDULES)),
)
def test_supervised_workload_always_selfheals(seed, schedule):
    result = run_cell("supervised", schedule, seed=seed)
    failures = (
        result.invariant_violations
        + result.liveness_problems
        + result.selfheal_problems
    )
    assert result.ok, "\n".join(failures)
    # Whatever the seed, the service ends the run healed, never
    # escalated, and with no false suspicions minted by noise.
    assert result.recovery["counts"]["escalations"] == 0
