"""Safe client-side retry (repro.recovery.retry).

The discipline under test (docs/RECOVERY.md): re-issue only what
provably never executed; gate ambiguous re-issues on a fresh server
incarnation; otherwise surface MAYBE rather than risking a double
execution.
"""

from repro.core import Buffer, ClientProgram, KernelConfig, Network
from repro.core.patterns import make_well_known_pattern
from repro.recovery.detector import FailureDetector
from repro.recovery.retry import RetryOutcome, RetryPolicy, retry_request
from repro.sim.tracing import SinkTable

from tests.conftest import ScriptedClient

PATTERN = make_well_known_pattern(0o713)
RUN_US = 30_000_000.0


def fast_probe_config() -> KernelConfig:
    return KernelConfig(probe_interval_us=50_000.0)


class PayloadServer(ClientProgram):
    """Echo server recording the payload of every executed exchange;
    optionally stalls in the handler before ACCEPTing."""

    def __init__(self, accept_delay_us: float = 0.0):
        self.accept_delay_us = accept_delay_us
        self.payloads = []

    def initialization(self, api, parent_mid):
        yield from api.advertise(PATTERN)

    def handler(self, api, event):
        if not event.is_arrival:
            return
        if self.accept_delay_us:
            yield api.compute(self.accept_delay_us)
        buf = Buffer(event.put_size)
        yield from api.accept_current_exchange(get=buf, put=b"pong")
        self.payloads.append(buf.data)


def retry_body(policy=None, detector=None):
    def body(api, self):
        outcome = yield from retry_request(
            api, PATTERN, put=b"op", get=16, policy=policy, detector=detector
        )
        return outcome

    return body


def test_fault_free_completes_first_attempt():
    net = Network(seed=3)
    server = PayloadServer()
    net.add_node(program=server, name="server")
    client = ScriptedClient(retry_body())
    net.add_node(program=client, name="client", boot_at_us=100.0)
    net.run(until=RUN_US)

    outcome = client.result
    assert isinstance(outcome, RetryOutcome)
    assert outcome.status == "completed" and outcome.completed
    assert outcome.attempts == 1
    assert server.payloads == [b"op"]
    assert net.sim.trace.count("recovery.retry") == 0


def test_no_server_ever_fails_without_attempting():
    net = Network(seed=4)
    policy = RetryPolicy(max_attempts=3, deadline_us=800_000.0)
    client = ScriptedClient(retry_body(policy))
    net.add_node(program=client, name="client", boot_at_us=100.0)
    net.run(until=RUN_US)

    outcome = client.result
    assert outcome.status == "failed"
    assert outcome.attempts == 0  # nothing resolved, nothing issued


def test_probe_proof_failure_is_retried_to_completion():
    # The server's client DIEs holding the REQUEST DELIVERED-but-not-
    # ACCEPTed; a fresh incarnation boots on the node.  The probe answers
    # arg=2 ("provably never executed"), so the shim re-issues against
    # the new incarnation and the op executes exactly once overall.
    net = Network(seed=5, config=fast_probe_config())
    first = PayloadServer(accept_delay_us=400_000.0)
    second = PayloadServer()
    server_node = net.add_node(program=first, name="server")
    client = ScriptedClient(retry_body())
    net.add_node(program=client, name="client", boot_at_us=100.0)

    def die_and_replace():
        server_node.crash_client()
        server_node.client = None
        server_node.install_program(second, boot_at_us=net.sim.now + 10_000.0)

    net.sim.schedule(100_000.0, die_and_replace)  # inside the stall
    net.run(until=RUN_US)

    outcome = client.result
    assert outcome.status == "completed"
    assert outcome.attempts == 2
    assert first.payloads == []  # the dead incarnation never executed it
    assert second.payloads == [b"op"]  # exactly once, on the new one
    retries = [
        r for r in net.sim.trace.records if r.category == "recovery.retry"
    ]
    assert len(retries) == 1 and retries[0]["reason"] == "crashed"


def test_power_failure_without_detector_resolves_to_maybe():
    # A node crash wipes the crashed-unaccepted memory (§3.6.1), so the
    # requester cannot prove non-execution.  With no epoch witness the
    # shim must NOT blindly re-issue: the outcome is MAYBE.
    net = Network(seed=6, config=fast_probe_config())
    server = PayloadServer(accept_delay_us=400_000.0)
    server_node = net.add_node(program=server, name="server")
    client = ScriptedClient(retry_body())
    net.add_node(program=client, name="client", boot_at_us=100.0)

    net.sim.schedule(100_000.0, server_node.crash)
    net.run(until=RUN_US)

    outcome = client.result
    assert outcome.status == "maybe" and outcome.maybe
    assert outcome.attempts == 1
    assert server.payloads == []  # and it was never executed twice
    assert net.sim.trace.count("recovery.maybe") == 1
    assert net.sim.trace.count("recovery.retry") == 0


def test_ambiguous_retry_waits_for_epoch_bump():
    # Same power failure, but a FailureDetector supplies incarnation
    # epochs: once the node boots a fresh client (epoch +1), the wiped
    # state makes a re-issue safe and the op completes.
    net = Network(seed=7, config=fast_probe_config())
    first = PayloadServer(accept_delay_us=400_000.0)
    second = PayloadServer()
    server_node = net.add_node(program=first, name="server")
    detector = FailureDetector()
    SinkTable(detector).install(net)
    client = ScriptedClient(retry_body(detector=detector))
    net.add_node(program=client, name="client", boot_at_us=100.0)

    def crash():
        server_node.crash()
        quiet = net.config.deltat.crash_quiet_us
        server_node.client = None
        server_node.install_program(
            second, boot_at_us=net.sim.now + quiet + 50_000.0
        )

    net.sim.schedule(100_000.0, crash)
    net.run(until=RUN_US)

    outcome = client.result
    assert outcome.status == "completed"
    assert outcome.attempts == 2
    assert second.payloads == [b"op"]
    assert detector.epoch(0) == 2
    retries = [
        r for r in net.sim.trace.records if r.category == "recovery.retry"
    ]
    assert [r["reason"] for r in retries] == ["epoch_advanced"]


def test_backoff_is_capped():
    policy = RetryPolicy(
        backoff_base_us=100.0, backoff_factor=10.0, backoff_max_us=5_000.0
    )
    assert policy.backoff_us(0) == 100.0
    assert policy.backoff_us(1) == 1_000.0
    assert policy.backoff_us(5) == 5_000.0
