"""Probe-path races (§3.6.2): lost replies, in-flight ACCEPTs, resets.

Satellite coverage for the recovery PR: the probe failure counter must
be *consecutive* (a successful reply resets it), an ACCEPT landing
while a probe is outstanding must win cleanly, and a probe racing a
client reset must distinguish "provably unexecuted" (arg=2) from
"memory lost" (arg=0).
"""

from repro.core import ClientProgram, KernelConfig, Network, RequestStatus
from repro.core.patterns import make_well_known_pattern

from tests.conftest import RecordingServer, ScriptedClient

PATTERN = make_well_known_pattern(0o651)
RUN_US = 60_000_000.0


def fast_probe_config(**kwargs) -> KernelConfig:
    return KernelConfig(probe_interval_us=50_000.0, **kwargs)


def is_probe_reply(frame) -> bool:
    ptype = getattr(frame.payload, "ptype", None)
    return ptype is not None and ptype.value == "probe_reply"


class Sponge(RecordingServer):
    """RecordingServer on this module's pattern (never accepts)."""

    def __init__(self):
        super().__init__(pattern=PATTERN)


def signal_then_cancel(wait_us):
    def body(api, self):
        sig = yield from api.discover(PATTERN)
        tid = yield from api.signal(sig)
        yield api.compute(wait_us)
        status = yield from api.cancel(tid)
        return status

    return body


def make_net(seed, body, server=None):
    net = Network(seed=seed, config=fast_probe_config())
    server = server if server is not None else Sponge()
    net.add_node(program=server, name="server")
    client = ScriptedClient(body)
    net.add_node(program=client, name="client", boot_at_us=100.0)
    return net, server, client


# ---------------------------------------------------------------------------
# Consecutive-failure threshold (probe_failures resets on success).


def test_lost_probe_replies_below_threshold_do_not_crash():
    # Drop 3 consecutive probe replies (threshold is 5), then let them
    # through: the successful reply must reset the counter to zero and
    # the request stays DELIVERED — observable because the client can
    # still CANCEL it much later.
    net, server, client = make_net(2, signal_then_cancel(2_000_000.0))
    net.faults.drop_matching(is_probe_reply, count=3)
    checked = []

    def snapshot_counter():
        # The DISCOVER completed and retired; only the SIGNAL is open.
        (record,) = net.nodes[1].kernel.requests.values()
        assert record.state.value == "delivered"
        checked.append(record.probe_failures)

    # Well after the 3 losses and the first successful round.
    net.sim.schedule(800_000.0, snapshot_counter)
    net.run(until=RUN_US)
    assert checked == [0], "probe_failures must reset on a good reply"
    assert client.result.name == "SUCCESS"
    assert net.sim.trace.count("kernel.crash_report") == 0


def test_non_consecutive_losses_never_accumulate():
    # 4 lost replies, a good round, then 4 more lost: 8 total losses but
    # never 5 consecutive — the requester must not declare a crash.
    net, server, client = make_net(3, signal_then_cancel(3_000_000.0))
    net.faults.drop_matching(is_probe_reply, count=4)
    net.faults.drop_matching(is_probe_reply, count=4, skip=1)
    net.run(until=RUN_US)
    assert client.result.name == "SUCCESS"
    assert net.sim.trace.count("kernel.crash_report") == 0


def test_five_consecutive_lost_replies_declare_crash():
    # The threshold itself: 5 straight losses exhaust the probe budget
    # and the request fails CRASHED with the probe_timeout reason —
    # ambiguous, because a reply (not the server) may have been lost.
    def body(api, self):
        sig = yield from api.discover(PATTERN)
        completion = yield from api.b_signal(sig)
        return completion

    net, server, client = make_net(4, body)
    net.faults.drop_matching(is_probe_reply, count=5)
    net.run(until=RUN_US)
    completion = client.result
    assert completion.status is RequestStatus.CRASHED
    assert completion.not_executed is None  # ambiguous, not provable
    reports = [
        r
        for r in net.sim.trace.records
        if r.category == "kernel.crash_report"
    ]
    assert [r["reason"] for r in reports] == ["probe_timeout"]


# ---------------------------------------------------------------------------
# ACCEPT racing an in-flight probe.


def test_accept_arriving_while_probe_in_flight():
    # Arrange a probe whose reply is lost, then ACCEPT inside the
    # 60ms reply-deadline window: the ACCEPT must complete the request
    # and cleanly retire the outstanding probe timer (the liveness
    # checker would flag a leak; a stale timeout would double-complete).
    def body(api, self):
        sig = yield from api.discover(PATTERN)
        completion = yield from api.b_signal(sig)
        return completion

    net, server, client = make_net(5, body)
    probe_seen = []

    def watch(record):
        if (
            record.category == "kernel.tx"
            and record.get("ptype") == "probe"
            and not probe_seen
        ):
            probe_seen.append(record.time)
            net.faults.drop_matching(is_probe_reply, count=1)
            net.sim.schedule(5_000.0, accept_now)

    def accept_now():
        sig = server.events[0].asker
        net.nodes[0].kernel.client_accept(sig, 0)

    net.sim.trace.add_sink(watch)
    net.run(until=RUN_US)
    assert probe_seen, "the probe under test never fired"
    assert client.result.status is RequestStatus.COMPLETED
    assert net.sim.trace.count("kernel.crash_report") == 0
    # The requester's record retired; no probe machinery left behind.
    kernel = net.nodes[1].kernel
    assert kernel.requests == {}
    assert kernel.leaked_probe_timers() == []
    assert net.sim.trace.count("kernel.complete") == 2  # DISCOVER + SIGNAL


# ---------------------------------------------------------------------------
# Probe vs. client reset (§3.6.1): arg=2 proof vs arg=0 ambiguity.


def test_probe_after_client_reset_proves_non_execution():
    # The server's client DIEs holding the REQUEST DELIVERED; a new
    # client boots on the same (still-running) kernel.  The kernel
    # remembers the un-ACCEPTed delivery across the reset and answers
    # probes with arg=2: CRASHED, provably never executed.
    def body(api, self):
        sig = yield from api.discover(PATTERN)
        completion = yield from api.b_signal(sig)
        return completion

    net, server, client = make_net(6, body)
    server_node = net.nodes[0]

    def reset_and_replace():
        server_node.crash_client()
        server_node.client = None
        server_node.install_program(
            Sponge(), boot_at_us=net.sim.now + 5_000.0
        )

    net.sim.schedule(200_000.0, reset_and_replace)
    net.run(until=RUN_US)
    completion = client.result
    assert completion.status is RequestStatus.CRASHED
    assert completion.not_executed is True
    reports = [
        r
        for r in net.sim.trace.records
        if r.category == "kernel.crash_report"
    ]
    assert [r["reason"] for r in reports] == ["probe_crashed_unaccepted"]


def test_probe_after_power_failure_is_ambiguous():
    # A full node crash wipes the crashed-unaccepted memory with the
    # rest of the kernel: once it recovers, probes for the lost delivery
    # answer arg=0 (denied) and the failure stays ambiguous.
    def body(api, self):
        sig = yield from api.discover(PATTERN)
        completion = yield from api.b_signal(sig)
        return completion

    net, server, client = make_net(7, body)
    net.sim.schedule(200_000.0, net.nodes[0].crash)
    net.run(until=RUN_US)
    completion = client.result
    assert completion.status is RequestStatus.CRASHED
    assert completion.not_executed is None
    reports = {
        r["reason"]
        for r in net.sim.trace.records
        if r.category == "kernel.crash_report"
    }
    assert reports <= {"probe_timeout", "probe_denied"}
    assert reports, "the failure must surface as a crash report"
