"""The KV primary replicates only when it has something to say.

A round runs while a client op is parked or a peer's log is behind.
After a round with work the replica's task waits for an interrupt for
at most ``IDLE_ROUND_US`` and then runs one idle round; after that it
WAITs with no timer until a handler invocation gives it work.  Each
phase of a round runs only with something to carry: the APPEND to each
peer when a peer lacks entries (or as the idle round's heartbeat), the
CONFIRM to each peer when an op is parked or a peer is not
fingerprint-matched to the log end (DESIGN.md §16).  A new commit index
is no work of its own: it rides the next round's APPEND, the idle
round's at the latest.  A replica on a rebooted node says HELLO to the
primary, which unmatches it: that is how a calm finds a peer that came
back.

Each test fails under the hand mutation of ``KvReplica.task`` /
``KvReplica._has_work`` / ``KvReplica._replicate_round`` /
``KvReplica._hello`` / ``ClientProcessor.wait_activity`` named for it
(each was applied to a copy and the named test seen failing):

* (a) ``test_calm_primary_is_silent_between_ops`` — the old
  unconditional loop: round, serve, ``compute(repl_interval_us)``,
  every pass; an idle round that keeps its CONFIRM; a read-only round
  that keeps its APPEND; the ``_sent_commit`` clause restored in
  ``_has_to_ship`` (a commit-only APPEND round after every write); or
  the periodic idle round restored (poll with ``tick_us=IDLE_ROUND_US``
  after an idle round too).
* (a') ``test_get_is_served_by_the_first_confirm_round_after_it_arrived``
  — set ``_quorum_confirmed_at`` from the previous round's start.
* (b) ``test_parked_write_starts_its_round_at_once`` — keep the
  ``compute(repl_interval_us)`` sleep in the idle branch (rounds
  without work skipped, but work waits for the 20 ms tick).
* (c) ``test_amnesiac_backup_catches_up_within_an_idle_interval`` —
  drop the HELLO (``_hello`` returns at once), or the primary's
  ``matched.pop`` on it.  Dropping the HELLO also fails
  ``tests/durability/test_state.py::
  test_replica_that_lost_its_commit_mark_rejoins``.
* (d) ``test_followers_apply_without_a_further_client_op`` — drop the
  idle heartbeat's APPEND (a round with neither cargo sends nothing):
  the last writes' commit index then never reaches the followers.
* (e) ``test_idle_deposed_primary_is_fenced_and_acks_nothing`` — drop
  the step-down branch of ``KvReplica._adopt``.  No mutation of the
  quiet loop alone breaks it: at the heal, the rival's catch-up round
  (or, with a write at the heal, the stale primary's own round) carries
  the newer epoch, and both fence.
* (f) ``test_a_timer_free_wait_schedules_no_event`` — let
  ``wait_activity`` schedule its tick at an infinite delay (the heap
  entry is never popped, but it is pushed); or wait with
  ``tick_us=IDLE_ROUND_US`` after the idle round.
"""

import bisect

import pytest

from repro.workloads import build_workload
from repro.chaos.scenario import (
    NodeCrash,
    Partition,
    Reboot,
    Scenario,
    chaos_config,
    make_schedule,
)
from repro.core.client import ClientProgram
from repro.core.errors import RequestStatus
from repro.core.signatures import ServerSignature
from repro.replication.consistency import check_kv_consistency
from repro.replication.store import IDLE_ROUND_US, KvReplica
from repro.replication.wire import (
    KV_PATTERN,
    OP_PUT,
    REPL_PATTERN,
    make_token,
    pack_op,
)
from repro.sim.engine import Simulator


def _calm():
    built = build_workload("kvstore_supervised", seed=1, config=chaos_config())
    make_schedule("calm", built.spec).run(built)
    return built, built.net.sim.trace.records


def _program(built, mid):
    return built.net.nodes[mid].kernel.client.program


def _round_starts(records, primary, first_peer):
    """One APPEND per peer per round: the APPENDs to the first peer."""
    return [
        rec.time
        for rec in records
        if rec.category == "kernel.request"
        and rec["mid"] == primary
        and rec["dst"] == first_peer
        and rec["pattern"] == REPL_PATTERN
        and rec["put"] > 0
    ]


def _spy_rounds(monkeypatch):
    """(start time, to ship, to confirm) of each of replica0's rounds."""
    started = []
    replicate_round = KvReplica._replicate_round

    def spy(self, api):
        if api.my_mid == 0:
            started.append(
                (api.now, self._has_to_ship(), self._has_to_confirm())
            )
        yield from replicate_round(self, api)

    monkeypatch.setattr(KvReplica, "_replicate_round", spy)
    return started


def _primary_repl_requests(records, promoted):
    return [
        r for r in records
        if r.category == "kernel.request" and r["mid"] == 0
        and r["pattern"] == REPL_PATTERN and r.time > promoted
    ]


def test_calm_primary_is_silent_between_ops(monkeypatch):
    """Each phase of a round runs only with something to carry: a write
    round sends an APPEND and a CONFIRM to each peer, a read-only round
    one CONFIRM to each peer, the idle round one APPEND to each peer.
    After a write's round no REPL REQUEST follows until the next op or
    the idle round: the new commit index waits for either.  Fails under
    the old unconditional loop, under an idle round that keeps its
    CONFIRM, under a read-only round that keeps its APPEND, and with a
    commit-only round restored."""
    started = _spy_rounds(monkeypatch)
    built, records = _calm()
    primary = _program(built, 0)
    assert primary.primary
    interval = primary.repl_interval_us
    promoted = next(r.time for r in records if r.category == "kv.promote")
    rounds = [t for t, _ship, _confirm in started]
    # Client REQUESTs, retries included (an op's first attempt may find
    # no primary yet).
    sent = [
        r.time for r in records
        if r.category == "kernel.request" and r["pattern"] == KV_PATTERN
    ]
    # Every REPL REQUEST the primary sends belongs to a round: an APPEND
    # (it carries the commit index, so its put is never empty) to each
    # peer if there is something to ship or nothing at all to say, then
    # a CONFIRM to each peer if there is something to confirm.
    repl = _primary_repl_requests(records, promoted)
    sent_at = [r.time for r in repl]
    peers = len(primary.peer_mids)
    ends = rounds[1:] + [float("inf")]
    kinds = {}
    for (start, ship, confirm), end in zip(started, ends):
        window = repl[
            bisect.bisect_left(sent_at, start) : bisect.bisect_left(sent_at, end)
        ]
        appends = sum(1 for r in window if r["put"] > 0)
        shape = (peers if ship or not confirm else 0, peers if confirm else 0)
        assert (appends, len(window) - appends) == shape, (
            f"round at {start} us (ship: {ship}, confirm: {confirm})"
        )
        kinds[ship, confirm] = kinds.get((ship, confirm), 0) + 1
    # Writes (ship and confirm), read-only rounds (confirm alone) and
    # idle rounds (neither): every shape the mutations above break is
    # exercised.  A calm has no round that ships without confirming:
    # a commit index alone is no cargo.
    assert sorted(kinds) == [(False, False), (False, True), (True, True)], (
        kinds
    )
    assert len(repl) == peers * sum(
        count * ((ship or not confirm) + confirm)
        for (ship, confirm), count in kinds.items()
    )

    def between(times, lo, hi):
        return bisect.bisect_right(times, hi) > bisect.bisect_left(times, lo)

    for before, start in zip(rounds, rounds[1:]):
        if start - before >= IDLE_ROUND_US:
            continue  # the idle round
        # Sooner than that only for an op that arrived since the round
        # before started; a commit the round before made is no reason.
        assert between(sent, before, start), (
            f"round at {start} us had nothing to say"
        )
    # Through the calm tail: exactly one idle round, an idle interval
    # after the last op's round, and then no REPL REQUEST at all until
    # the horizon.
    last_result = max(r.time for r in records if r.category == "kv.result")
    last_work = max(
        i for i, (_t, ship, confirm) in enumerate(started) if ship or confirm
    )
    assert started[last_work][0] < last_result
    ((idle_at, ship, confirm),) = started[last_work + 1 :]
    assert not (ship or confirm)
    assert idle_at - started[last_work][0] >= IDLE_ROUND_US
    assert idle_at - last_result <= IDLE_ROUND_US + interval
    after = [r for r in repl if r.time >= idle_at]
    assert len(after) == peers and all(r["put"] > 0 for r in after)
    assert built.net.sim.now - idle_at > 10 * IDLE_ROUND_US


def test_get_is_served_by_the_first_confirm_round_after_it_arrived(
    monkeypatch,
):
    """The read-index rule survives the APPEND-less read round: a GET is
    answered only after a round with a CONFIRM phase that *started*
    after it arrived, and by the first such round.  Fails when
    ``_quorum_confirmed_at`` is set from the previous round (the GET
    then waits for a second CONFIRM round)."""
    started = _spy_rounds(monkeypatch)
    arrived, answered = {}, {}
    handle_kv, accept_arg = KvReplica._handle_kv, KvReplica._accept_arg

    def spy_arrival(self, api, event):
        reads = len(self.pending_reads)
        yield from handle_kv(self, api, event)
        if api.my_mid == 0 and len(self.pending_reads) > reads:
            arrived[event.asker] = api.now

    def spy_answer(self, api, asker, arg):
        if api.my_mid == 0 and asker in arrived:
            answered.setdefault(asker, api.now)
        yield from accept_arg(self, api, asker, arg)

    monkeypatch.setattr(KvReplica, "_handle_kv", spy_arrival)
    monkeypatch.setattr(KvReplica, "_accept_arg", spy_answer)
    built, records = _calm()
    promoted = next(r.time for r in records if r.category == "kv.promote")
    confirm_rounds = [t for t, _ship, confirm in started if confirm]
    confirms_at = [
        r.time for r in _primary_repl_requests(records, promoted)
        if r["put"] == 0
    ]
    assert len(arrived) == 10  # ops 1, 4, 7, ... of 30: the GETs
    assert sorted(answered) == sorted(arrived)
    for asker, at in arrived.items():
        # "After" is ``>=``: the task's WAIT ends in the instant the
        # handler parks the GET.
        lo = bisect.bisect_left(confirm_rounds, at)
        hi = bisect.bisect_right(confirm_rounds, answered[asker])
        assert hi - lo == 1, (asker, at, confirm_rounds[lo:hi])
        # That round really sent its CONFIRMs before the answer.
        assert bisect.bisect_right(confirms_at, answered[asker]) > (
            bisect.bisect_left(confirms_at, confirm_rounds[lo])
        )


def test_parked_write_starts_its_round_at_once(monkeypatch):
    parked = []
    handle_kv = KvReplica._handle_kv

    def spy(self, api, event):
        waiting = len(self.waiters)
        yield from handle_kv(self, api, event)
        if len(self.waiters) > waiting:
            parked.append(api.now)

    monkeypatch.setattr(KvReplica, "_handle_kv", spy)
    built, records = _calm()
    primary = _program(built, 0)
    appends = _round_starts(records, 0, primary.peer_mids[0])
    assert len(parked) == 20  # ops 0, 2, 3, 5, ... of 30: the writes
    for ended in parked:
        first = appends[bisect.bisect_left(appends, ended)]
        # A context switch and one trap (1.1 ms), not the rest of a
        # 20 ms tick: the WAIT ends with the invocation that parked it.
        assert first - ended <= 2_000.0, (ended, first)
    latencies = sorted(
        r.time - r["invoked_at"]
        for r in records
        if r.category == "kv.result" and r["op"] != "get"
    )
    # 34.1 ms p50 while the primary replicated on a 20 ms clock.
    assert latencies[len(latencies) // 2] < 34_000.0


def test_amnesiac_backup_catches_up_within_an_idle_interval():
    """The rebooted peer says HELLO, the primary drops its ``matched``
    so the next round has work, the round's APPEND finds the gap
    (ACK_GAP), and the whole log follows at once, although the primary
    had gone silent long before.  Fails with the HELLO dropped (the
    silent primary never looks at the peer again)."""
    crash_at, reboot_at = 6_000_000.0, 6_500_000.0
    built = build_workload("kvstore", durable=False)
    Scenario(
        "idle_amnesia",
        (NodeCrash(crash_at, role="replica1"), Reboot(reboot_at, role="replica1")),
    ).run(built)
    records = built.net.sim.trace.records
    assert check_kv_consistency(records) == []
    # The cluster was idle: the client finished well before the crash.
    assert max(
        r.time for r in records if r.category == "kv.result"
    ) < crash_at - IDLE_ROUND_US
    primary, backup = _program(built, 0), _program(built, 1)
    assert primary.primary and primary.commit > 0
    assert backup.commit == primary.commit
    assert backup.log[: backup.commit] == primary.log[: primary.commit]
    applied = [
        r.time for r in records
        if r.category == "kv.apply" and r["mid"] == 1 and r.time > reboot_at
    ]
    assert len(applied) == primary.commit
    # The HELLO finds the silent primary; a round or two of
    # anti-entropy (GAP, then the whole log) follows at once: the boot,
    # one DISCOVER window, the HELLO and two rounds (68.7 ms).
    assert max(applied) - reboot_at <= 4 * primary.repl_interval_us


def test_followers_apply_without_a_further_client_op():
    """Every committed entry is applied on every follower, never before
    the primary, by the first APPEND the primary sends after the commit
    (the next write's round, or the idle heartbeat after the last
    write), and the primary never falls silent for longer than an idle
    interval (plus three round intervals of slack) in between.  A
    read-only round is a CONFIRM alone and restarts the idle wait, so
    the whole delay can exceed one idle interval; the silence cannot.
    Fails with the idle heartbeat's APPEND dropped."""
    built, records = _calm()
    primary = _program(built, 0)
    committed = {
        r["index"]: r.time
        for r in records if r.category == "kv.apply" and r["mid"] == 0
    }
    followers = {}
    for r in records:
        if r.category == "kv.apply" and r["mid"] != 0:
            followers.setdefault(r["mid"], {})[r["index"]] = r.time
    assert sorted(followers) == list(primary.peer_mids)
    repl = _primary_repl_requests(records, 0.0)
    said = [r.time for r in repl]
    slack = 3 * primary.repl_interval_us
    for mid, applied in followers.items():
        assert sorted(applied) == sorted(committed)
        appends = [r.time for r in repl if r["dst"] == mid and r["put"] > 0]
        for index, at in committed.items():
            done = applied[index]
            assert at <= done, (mid, index)
            # The first APPEND after the commit carried it.
            carrier = appends[bisect.bisect_right(appends, at)]
            assert done - slack <= carrier <= done, (mid, index, carrier)
            heard = [at] + said[
                bisect.bisect_right(said, at) : bisect.bisect_right(said, done)
            ]
            silence = max(b - a for a, b in zip(heard, heard[1:]))
            assert silence <= IDLE_ROUND_US + slack, (mid, index, silence)


class _Writer(ClientProgram):
    """One PUT straight at ``target``'s KV pattern at ``at_us``."""

    def __init__(self, target: int, at_us: float) -> None:
        self.target = target
        self.at_us = at_us
        self.completion = None

    def task(self, api):
        yield api.compute(self.at_us - api.now)
        self.completion = yield from api.b_signal(
            ServerSignature(self.target, KV_PATTERN),
            arg=pack_op(OP_PUT, 1, make_token(api.my_mid, 0)),
        )
        yield from api.serve_forever()


@pytest.mark.parametrize("write_at_heal", [False, True])
def test_idle_deposed_primary_is_fenced_and_acks_nothing(write_at_heal):
    # The client is done by ~4.4 s; isolate the idle primary long enough
    # for the supervisor to promote a rival, then heal.
    start, heal = 5_000_000.0, 8_000_000.0
    built = build_workload("kvstore_supervised", config=chaos_config())
    writer = _Writer(0, heal + 1_000.0)
    if write_at_heal:
        built.net.add_node(program=writer, name="writer", boot_at_us=150.0)
    Scenario(
        "idle_partition", (Partition(start, heal, isolate=("replica0",)),)
    ).run(built)
    records = built.net.sim.trace.records
    assert check_kv_consistency(records) == []
    rivals = [
        r for r in records
        if r.category == "kv.promote" and r["mid"] != 0
    ]
    assert rivals and start < rivals[0].time < heal
    demoted = [
        r.time for r in records
        if r.category == "kv.demote" and r["mid"] == 0
    ]
    assert demoted, "the stale primary was never fenced"
    replica0 = _program(built, 0)
    # Fenced on its next round: at the latest, the idle one.
    assert heal <= demoted[0] <= heal + IDLE_ROUND_US + 2 * (
        replica0.repl_interval_us
    )
    assert not replica0.primary
    if write_at_heal:
        completion = writer.completion
        assert completion is not None
        assert not (
            completion.status is RequestStatus.COMPLETED
            and completion.arg >= 0
        ), "a deposed primary acknowledged a write"


def test_a_timer_free_wait_schedules_no_event(monkeypatch):
    """After the idle round no replica schedules a single ``tick``: the
    primary and both backups WAIT with ``tick_us=math.inf``, which arms
    no timer, so only a handler invocation wakes them.  Fails when
    ``wait_activity`` schedules its tick at an infinite delay, and when
    the primary keeps a periodic idle round."""
    started = _spy_rounds(monkeypatch)
    ticks = []
    schedule = Simulator.schedule

    def spy(sim, delay, fn, *args, **kwargs):
        if fn.__qualname__ == "ClientProcessor.wait_activity.<locals>.tick":
            owner = dict(zip(fn.__code__.co_freevars, fn.__closure__))
            ticks.append((sim.now, owner["self"].cell_contents.name))
        return schedule(sim, delay, fn, *args, **kwargs)

    monkeypatch.setattr(Simulator, "schedule", spy)
    built, _records = _calm()
    idle_at, ship, confirm = started[-1]
    assert not (ship or confirm)
    replicas = {f"replica{i}.client" for i in range(3)}
    assert [t for t, name in ticks if name in replicas and t >= idle_at] == []
    # Before it, the primary's waits did tick (the idle interval's timer).
    assert any(name == "replica0.client" for _t, name in ticks)
