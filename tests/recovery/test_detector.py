"""FailureDetector: per-(node, epoch) liveness from trace records.

The detector is a ``HANDLERS`` sink: a ``SinkTable`` replays records into
it or streams a live run through it.  ``test_install_is_exclusive_and_
uninstall_detaches`` is gone with ``install`` / ``uninstall``; a table
that joins late is refused by ``SinkTable.install``
(``tests/test_live_judging.py::test_sinks_must_be_installed_before_the_
first_record``), and ``test_epoch_bumps_on_observed_reboot`` below
observes a live run through one.
"""

from repro.core import KernelConfig, Network
from repro.recovery import FailureDetector, NodeState
from repro.sim.tracing import SinkTable, TraceRecord

from tests.conftest import ECHO_PATTERN, EchoServer, ScriptedClient, make_pair


def rec(time, category, **fields):
    return TraceRecord(time, category, fields)


def detected(records):
    detector = FailureDetector()
    SinkTable(detector).replay(records)
    return detector


def watching(net):
    detector = FailureDetector()
    SinkTable(detector).install(net)
    return detector


# ---------------------------------------------------------------------------
# Pure state-machine behaviour (synthetic records).


def test_boot_advances_epoch_and_marks_alive():
    det = detected([rec(10.0, "kernel.boot_handler", mid=3)])
    view = det.view(3)
    assert (view.epoch, view.state, view.boots) == (1, NodeState.ALIVE, 1)
    assert det.alive(3)


def test_crash_report_makes_suspect_and_counts_false_suspicion():
    det = detected(
        [
            rec(0.0, "kernel.boot_handler", mid=0),
            rec(5.0, "kernel.crash_report", mid=1, peer=0),
        ]
    )
    assert det.state(0) is NodeState.SUSPECT
    assert det.suspected(0)
    # The node was ALIVE per ground truth, so the report is a false
    # suspicion (legitimate only under injected faults).
    assert det.false_suspicions == 1
    assert det.total_crash_reports == 1


def test_ground_truth_death_beats_crash_reports():
    det = detected(
        [
            rec(0.0, "kernel.boot_handler", mid=0),
            rec(5.0, "kernel.die", mid=0),
            rec(9.0, "kernel.crash_report", mid=1, peer=0),
        ]
    )
    # Reports about a known-dead incarnation are not suspicions: the
    # detector already knows, and DEAD is sticky until the next boot.
    assert det.state(0) is NodeState.DEAD
    assert det.false_suspicions == 0
    assert det.view(0).deaths == 1


def test_reboot_starts_a_fresh_incarnation():
    det = detected(
        [
            rec(0.0, "kernel.boot_handler", mid=0),
            rec(5.0, "kernel.crash_report", mid=1, peer=0),
            rec(8.0, "kernel.die", mid=0),
            rec(20.0, "kernel.boot_handler", mid=0),
        ]
    )
    view = det.view(0)
    # Epoch advanced; per-epoch report count reset; lifetime totals kept.
    assert (view.epoch, view.state) == (2, NodeState.ALIVE)
    assert view.crash_reports == 0
    assert view.total_crash_reports == 1


def test_restored_corroborates_alive():
    det = detected(
        [
            rec(0.0, "kernel.boot_handler", mid=0),
            rec(5.0, "kernel.crash_report", mid=2, peer=0),
            rec(9.0, "recovery.restored", mid=1, service_mid=0),
        ]
    )
    assert det.state(0) is NodeState.ALIVE
    assert det.view(0).crash_reports == 0


def test_summary_is_deterministic_and_sorted():
    records = [
        rec(0.0, "kernel.boot_handler", mid=2),
        rec(1.0, "kernel.boot_handler", mid=0),
        rec(2.0, "kernel.crash_report", mid=0, peer=2),
    ]
    one = detected(records).summary()
    two = detected(records).summary()
    assert one == two
    assert [node["mid"] for node in one["nodes"]] == [0, 2]


# ---------------------------------------------------------------------------
# Live observation of a real network (satellite: epoch bump on reboot).


def test_epoch_bumps_on_observed_reboot():
    net = Network(seed=5, config=KernelConfig(probe_interval_us=50_000.0))
    detector = watching(net)
    server_node = net.add_node(program=EchoServer(), name="server")

    def body(api, self):
        sig = yield from api.discover(ECHO_PATTERN)
        completion = yield from api.b_signal(sig)
        return completion.status

    net.add_node(program=ScriptedClient(body), name="client", boot_at_us=100.0)

    def die_then_reboot():
        server_node.crash_client()
        server_node.client = None
        server_node.install_program(
            EchoServer(), boot_at_us=net.sim.now + 100_000.0
        )

    net.sim.schedule(500_000.0, die_then_reboot)
    net.run(until=5_000_000.0)

    view = detector.view(0)
    assert view.epoch == 2  # first boot + reboot
    assert view.boots == 2
    assert view.deaths == 1
    assert view.state is NodeState.ALIVE  # the new incarnation is up
    # The DIE itself was ground truth, not a peer report.
    assert detector.false_suspicions == 0


def test_fault_free_run_has_zero_crash_reports(network):
    detector = watching(network)
    server = EchoServer()

    def body(api, self):
        sig = yield from api.discover(ECHO_PATTERN)
        completion = yield from api.b_exchange(sig, put=b"hi", get=16)
        return completion.status

    make_pair(network, server, body)
    network.run(until=5_000_000.0)
    assert detector.total_crash_reports == 0
    assert detector.false_suspicions == 0
    assert detector.state(0) is NodeState.ALIVE
