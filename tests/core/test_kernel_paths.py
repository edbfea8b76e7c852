"""Each kernel transition has one path; these cells pin it record for
record (DESIGN.md §9.2).

Every cell is a chaos cell run with its trace kept.  Its pin is the
sha256 of ``repr([(time, category, values) …])`` over every record and
of the cost ledger's charges, taken before PR 30's folds and equal
after them, plus the counts of the paths it is here for, read off the
records by :func:`paths`.  The two KV cells' digests were re-taken when
the commit index began to ride the next round (PR 34: no commit-only
round, so the replicas' traffic moved); their path counts did not move.  A ``/pipelined`` cell runs the pipelined
kernel (no matrix cell does) and holds a REQUEST 10 ms instead of 40 ms,
which is what makes a hold expire.

One hand mutation per helper the folds introduced, and a test that
kills it (each was applied to a copy and the named test seen failing):

* ``_arrival`` swapping ``put_size`` and ``get_size`` in the event —
  ``kvstore_supervised/partition_heal/1``.
* ``_busy_nack`` tracing ``hold_expired=False`` on a plain BUSY NACK —
  ``busy/thundering_herd/1/pipelined``, ``stream/client_flap/1``.
* ``_release_held`` without the rollback on expiry — the three expiring
  ``busy`` cells; on a client reset —
  ``test_a_client_reset_rolls_the_held_request_back`` (no cell resets a
  client alone while a REQUEST is held).
* ``_next_immediate_event`` not charging the context switch for a held
  REQUEST — ``busy/calm/1/pipelined`` (the ledger is in the pin).
* ``_complete`` dropping ``taken_get`` from the record —
  ``kvstore_supervised/primary_crash_load/3``; from the event —
  ``test_kernel_messaging::test_b_exchange_both_directions``.
* ``_complete`` crash-reporting an OVERLOAD —
  ``test_overload::test_shed_request_completes_overloaded``.
* ``_fail`` dropping ``not_executed`` —
  ``kvstore_supervised/primary_crash_load/3``,
  ``test_retry::test_probe_proof_failure_is_retried_to_completion``.
* ``_close_request`` not tracing a reset's withdrawals —
  ``stream/client_flap/1`` (``reset_cancelled``).
* ``_settle`` skipping the DONE — ``kvstore_supervised/partition_heal/1``,
  ``test_record_lifetime::test_done_delivery_answers_probes_until_…``.
  Resolving the ACCEPT *before* the DONE is an equivalent mutation: a
  future's waiters only schedule, so no record or event moves.
* ``client_accept`` answering CANCELLED to a dead peer, or leaving its
  open delivery unsettled —
  ``test_record_lifetime::test_accept_on_a_connection_declared_dead_…``.
* ``_DISPATCH`` without its CANCEL_REPLY row — ``cancel/calm/1``,
  ``test_cancel::test_double_cancel_second_succeeds``.
* ``Connection._take_channel`` forgetting the resync bit —
  ``kvstore_supervised/partition_heal/1``; forgetting ``on_transmit`` —
  ``queued/calm/1``.
* ``Connection.send_unsequenced`` not piggybacking the owed ack —
  ``cancel/calm/1``, ``echo/flap/1``.
* ``Connection._ack_timer_fire`` dropping the echoed stamp —
  ``test_connection_unit::test_owed_ack_times_out_to_pure_ack``.
* ``_cancel_peer_dead`` leaving the CANCEL blocked (the REQUEST's probe
  timeout then fails it, later) or answering SUCCESS —
  ``test_a_cancel_whose_server_stays_dark_fails_when_its_peer_dies``.
* SODAL's ``_completion`` not folding REJECT —
  ``test_app_edges::test_rpc_double_put_rejected``.
* SODAL's ``_blocked_on`` not polling the handler after the wait —
  ``test_cancel::test_cancel_race_with_accept_fails_and_completes``;
  not blocking interrupts during it —
  ``test_api::test_no_handler_runs_inside_a_blocking_accept``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from collections import Counter

import pytest

from repro.chaos.scenario import chaos_config, make_schedule
from repro.core import (
    CancelStatus,
    ClientProgram,
    KernelConfig,
    Network,
    RequestStatus,
)
from repro.core.patterns import BROADCAST, make_well_known_pattern
from repro.net import frame
from repro.transport import packet
from repro.workloads import build_workload

from tests.conftest import RecordingServer, ScriptedClient

#: cell id -> (sha256 of every record, the path counts it is pinned for).
CELLS = {
    "busy/calm/1/pipelined": (
        "e109a7a7ae296d37bf27d1bbade398beda790da7f8a9d6d40be9eb74c3395543",
        {"held_expired": 6, "held_delivered": 5},
    ),
    "busy/thundering_herd/1/pipelined": (
        "f5fa51ef399ee30f5e43d02f6b2c446b4c0458bc2ddaeaf5e0fb20df1bb812de",
        {"held_expired": 39, "held_delivered": 16, "busy_nack": 128},
    ),
    "busy/duplicate/1/pipelined": (
        "d38167d2cf46e3af748d8bf570b7e684823e5f20f9e0d245124e034e5e2e9676",
        {"held_expired": 2, "complete.probe_denied": 2},
    ),
    "busy/server_crash/1/pipelined": (
        "802a75873270cf137ec7827ecf4bda0d5234440c1d1ca2ad753f4ec68bd076f8",
        {"held_reset": 1, "complete.probe_timeout": 1,
         "request_peer_dead": 2},
    ),
    "cancel/calm/1": (
        "26717a939389aa2eb276b9d087692f3ea44d056e0b49e25ff92e3a7ddeee2bcb",
        {"cancel_close": 1},
    ),
    "cancel/server_flap/1": (
        "a8e0a6fe034ff961adea7556749b60af5cd95447e84870961dbcb6d7759b0c59",
        {"complete.probe_crashed_unaccepted": 1},
    ),
    "stream/client_flap/1": (
        "b8e8e22a4b5f76317a8be42a8acf18501f08953df774d9ddf7704f261b96057d",
        {"reset_cancelled": 3, "accept_pull": 12, "seq_swap": 11,
         "busy_nack": 13},
    ),
    "stream/client_flap/1/pipelined": (
        "307cc7f4d8b614f058799a345e494a1e33bd6ef8f78d6fe84787b9239e63e5e3",
        {"nack_settle": 1, "reset_cancelled": 3, "held_delivered": 14},
    ),
    "supervised/crash_idle/1": (
        "ba6f8dda1406762ba4b6d17379f392cc4828a1a3ce3da9cf44bfcfc18db8db66",
        {"complete.discover": 62, "complete.nack_unadvertised": 1},
    ),
    # The two KV cells moved with the KV model, not with a kernel path:
    # a calm primary runs one idle round per quiet period and a rebooted
    # replica DISCOVERs the primary to say HELLO (184 DISCOVERs before;
    # 8bfe0f0a… and e11c0eb9… before).
    "kvstore_supervised/primary_crash_load/3": (
        "67e220afbd6435791dcf728f08b6638985b22c49539173f4a76e4003f62d28e4",
        {"crash_report": 18, "complete.nack_unadvertised": 17,
         "request_peer_dead": 1, "complete.discover": 185},
    ),
    "kvstore_supervised/partition_heal/1": (
        "f9f898c3530ac5932a5d35fb97e9334365ed2c1dd316aa2ad76d205da4a7ee61",
        {"accept_peer_dead": 1, "nack_settle": 1,
         "complete.probe_denied": 1, "complete.probe_timeout": 1},
    ),
    "echo/lossy/1": (
        "ac6cbd6ddeeacac7f8ab13f0674780cc6201ac00fb1ba72a64af515b148397a3",
        {"accept_pull": 1},
    ),
    "echo/flap/1": (
        "92561149cc165c326b521b68e7914f787f1a57c59c4e9f0e2ed743a150ff460d",
        {"complete.probe_crashed_unaccepted": 1,
         "complete.nack_unadvertised": 2},
    ),
    "queued/calm/1": (
        "9bb31c5a1b61fe5c100b284d7f848281093376a713d81bc85775d68105dfa382",
        {"complete.accept": 8},
    ),
}


def run(cell: str):
    """The cell's network after the run, as in a fresh process (packet
    and frame ids are minted per process, and ``kernel.tx`` carries
    both)."""
    workload, schedule, seed, *pipelined = cell.split("/")
    packet._packet_ids = itertools.count(1)
    frame._frame_ids = itertools.count(1)
    config = chaos_config()
    if pipelined:
        config = dataclasses.replace(
            config,
            pipelined=True,
            timing=dataclasses.replace(
                config.timing, input_buffer_hold_us=10_000.0
            ),
        )
    built = build_workload(workload, seed=int(seed), config=config)
    make_schedule(schedule, built.spec).run(built)
    return built.net


def digest(net) -> str:
    records = [(r.time, r.category, r.values) for r in net.sim.trace.records]
    charges = sorted(net.ledger.snapshot().items())
    return hashlib.sha256(repr((records, charges)).encode()).hexdigest()


def paths(records) -> Counter:
    """How often the records show each folded path taken."""
    seen: Counter = Counter()
    held = {}  # mid -> (src, tid) in the input buffer
    discovers = set()  # (mid, tid) of DISCOVER REQUESTs
    resetting = None  # mid whose reset is closing its REQUESTs
    for rec in records:
        category = rec.category
        if category == "kernel.cancelled" and rec["mid"] == resetting:
            seen["reset_cancelled"] += 1
            continue
        resetting = None
        if category == "kernel.hold":
            held[rec["mid"]] = (rec["src"], rec["tid"])
        elif category == "kernel.busy_nack":
            if rec["hold_expired"]:
                seen["held_expired"] += 1
                del held[rec["mid"]]
            else:
                seen["busy_nack"] += 1
        elif category == "kernel.delivered_state":
            if held.get(rec["mid"]) == (rec["src"], rec["tid"]):
                seen["held_delivered"] += 1
                del held[rec["mid"]]
        elif category == "kernel.client_reset":
            resetting = rec["mid"]
            if held.pop(rec["mid"], None) is not None:
                seen["held_reset"] += 1
        elif category == "kernel.cancelled":
            seen["cancel_close"] += 1
        elif category == "kernel.request" and rec["dst"] == BROADCAST:
            discovers.add((rec["mid"], rec["tid"]))
        elif category == "kernel.complete":
            if rec["reason"] is not None:
                seen[f"complete.{rec['reason']}"] += 1
            elif (rec["mid"], rec["tid"]) in discovers:
                seen["complete.discover"] += 1
            else:
                seen["complete.accept"] += 1
        elif category == "kernel.crash_report":
            seen["crash_report"] += 1
        elif category == "kernel.accept" and rec["wait"] == "data":
            seen["accept_pull"] += 1
        elif category == "conn.peer_dead":
            seen[f"{rec['kind']}_peer_dead"] += 1
        elif category == "kernel.rx" and rec["nack"] in (
            "cancelled", "crashed"
        ):
            seen["nack_settle"] += 1
        elif category == "conn.seq_swap":
            seen["seq_swap"] += 1
    return seen


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_takes_its_paths_record_for_record(cell):
    pinned, wanted = CELLS[cell]
    net = run(cell)
    taken = paths(net.sim.trace.records)
    assert {name: taken[name] for name in wanted} == wanted
    assert digest(net) == pinned


# -- a reset empties the input buffer as an expiry does ------------------------

PATTERN = make_well_known_pattern(0o653)


class SlowServer(ClientProgram):
    """ACCEPTs each arrival after 50 ms of handler work, so a REQUEST
    arriving meanwhile finds the handler BUSY and is held."""

    def initialization(self, api, parent_mid):
        yield from api.advertise(PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            yield api.compute(50_000)
            yield from api.accept_current_signal()


def test_a_client_reset_rolls_the_held_request_back():
    """No chaos cell resets a client while a REQUEST is held without
    also power-failing the node, which wipes the connection anyway; here
    only the client dies.  The held REQUEST's sequence number must be
    un-consumed, so the requester's retry is taken as new — and refused,
    the new incarnation advertising nothing — instead of re-acked as a
    duplicate of a delivery that never happened (then probed, denied and
    reported CRASHED with the outcome ambiguous)."""
    net = Network(seed=5, config=KernelConfig(pipelined=True))
    server = net.add_node(program=SlowServer(), name="server")

    def signal(api, self):
        return (yield from api.b_signal(api.server_sig(0, PATTERN)))

    first, second = ScriptedClient(signal), ScriptedClient(signal)
    net.add_node(program=first, boot_at_us=100.0)
    net.add_node(program=second, boot_at_us=5_000.0)
    held = []

    def reset():
        held.append(server.kernel.held is not None)
        server.crash_client()

    net.sim.schedule(20_000.0, reset)
    net.run(until=5_000_000.0)
    assert held == [True] and server.kernel.held is None
    assert (second.result.status, second.result.not_executed) == (
        RequestStatus.UNADVERTISED, True,
    )


def test_a_cancel_whose_server_stays_dark_fails_when_its_peer_dies():
    """A CANCEL of a DELIVERED request, sent after the server's node
    power-failed, is never acked: the server is down for two quiet
    periods in a row, longer than the CANCEL's retries.  The CANCEL
    fails (FAIL, §3.3.3) the moment its own transmission is declared
    dead, before the REQUEST's probe times out and completes it
    CRASHED; no matrix cell cancels across a crash."""
    pattern = make_well_known_pattern(0o654)
    net = Network(seed=7)
    server = net.add_node(program=RecordingServer(pattern), name="server")

    def cancel_after_delivery(api, self):
        tid = yield from api.signal(api.server_sig(0, pattern))
        yield api.compute(50_000)
        status = yield from api.cancel(tid)
        return status, net.sim.now

    client = ScriptedClient(cancel_after_delivery)
    net.add_node(program=client, boot_at_us=100.0)
    quiet = net.config.deltat.crash_quiet_us
    net.sim.schedule(40_000.0, server.crash)
    net.sim.schedule(40_000.0 + quiet + 1.0, server.crash)
    net.run(until=2_000_000.0)
    trace = net.sim.trace
    [dead] = trace.select("conn.peer_dead", mid=1)
    [complete] = trace.select("kernel.complete", mid=1)
    assert dead["kind"] == "cancel"
    assert client.result == (CancelStatus.FAIL, dead.time)
    assert (complete["status"], complete["reason"]) == ("crashed", "probe_timeout")
    assert complete.time > dead.time
