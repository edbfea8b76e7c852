"""The replicated key-value replica program.

Primary-backup replication with epoch fencing over unreliable
broadcast, built only from SODA primitives:

* Clients REQUEST against :data:`~repro.replication.wire.KV_PATTERN`
  (advertised by the primary alone); the whole operation rides in the
  request argument (see :mod:`repro.replication.wire`), so the handler
  decides everything at arrival and never needs the payload.
* Writes append to an epoch-stamped in-memory log.  The handler only
  queues; the task replicates (APPEND), collects log *fingerprints*
  (CONFIRM), and acknowledges a write once a quorum of replicas holds
  it — the paper's handler/task split (§4.4.5).
* Commitment is fenced the Raft way: a CONFIRM reply claims the
  replica's current epoch, and an epoch is granted away (VOTE) before
  any rival can be promoted, so a deposed primary can never assemble a
  quorum of current-epoch confirmations for an unreplicated write.
  Commit only advances onto an entry of the primary's own epoch (each
  promotion appends a no-op barrier entry to make that live).
* Reads are linearizable via the read-index discipline: a GET parks at
  arrival and is served from committed state only after a quorum
  confirmation round that *started* after the read arrived, and once
  commit holds an entry of the primary's own epoch (Raft §8).
* A rebooted or deposed replica rejoins by anti-entropy: APPEND
  carries a ``prev_epoch`` consistency check, conflicts truncate the
  uncommitted suffix, and gaps walk the sender back — the log-matching
  property keeps committed prefixes identical everywhere.
* The primary talks only when it has something to say: a round runs
  while a client op is parked or a peer's log is behind.  After a
  round with work, the task waits for an interrupt (§5.2.1) for at
  most :data:`IDLE_ROUND_US` and then runs one idle round, a bare
  APPEND per peer; after that it WAITs with no timer at all.  A new
  commit index is no work: a follower's is only a lower bound of the
  primary's, so it rides the next APPEND (the idle round's at the
  latest, and its WAL mark the next fsync), not a round of its own.
* A calm needs no heartbeat to find a peer that came back: a replica
  on a rebooted node says HELLO to the primary it DISCOVERs, and the
  primary drops that peer's ``matched`` so its next round has work.
  A stale or fencing peer is found by the next op's round.
* And each half of a round only when it carries something: the APPEND
  when a peer lacks entries, the CONFIRM when an op is parked or a peer
  is not fingerprint-matched to the log end.  A round that only serves
  a GET is a CONFIRM alone.

At-most-once: every write carries a client token; a token lives in the
log at most once (the dedup table is exactly the log's token index and
is rebuilt by replay wherever the log goes), so client retries across
failovers — including retries of MAYBE outcomes — are always safe.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.buffers import Buffer
from repro.core.client import ClientProgram
from repro.core.errors import RequestStatus, SodaError
from repro.core.signatures import ServerSignature
from repro.durability.state import ReplicaStorage
from repro.replication.wire import (
    ACK_FENCED,
    ACK_GAP,
    ACK_MISMATCH,
    ACK_OK,
    BATCH_ENTRIES,
    ENTRY_BYTES,
    KV_PATTERN,
    MSG_APPEND,
    MSG_CONFIRM,
    MSG_FETCH,
    MSG_HELLO,
    MSG_TAKEOVER,
    MSG_VOTE,
    OP_CAS,
    OP_GET,
    OP_NOOP,
    OP_NAMES,
    REPL_PATTERN,
    REPLY_CAS_FAIL,
    Entry,
    decode_entries,
    encode_entries,
    pack_ack,
    pack_repl,
    pack_result,
    pack_status,
    unpack_ack,
    unpack_op,
    unpack_repl,
    unpack_status,
)

__all__ = ["KvReplica", "IDLE_ROUND_US"]

#: How long after a round with work the primary runs its one idle round
#: (an APPEND to each peer) if no new work comes first.  The
#: supervisor's poll interval.
IDLE_ROUND_US = 200_000.0


class KvReplica(ClientProgram):
    """One replica of the primary-backup KV store.

    ``peer_mids`` are the other replicas; ``quorum`` counts *replicas
    including self* that must hold a write before it is acknowledged.
    ``claim_primary`` runs the takeover protocol at boot (the seed
    primary, and the self-promotion path after an amnesiac reboot —
    the claim only succeeds against a vote quorum, so a stale image
    can never split the brain).
    """

    def __init__(
        self,
        index: int,
        peer_mids: Tuple[int, ...],
        quorum: int = 2,
        claim_primary: bool = False,
        repl_interval_us: float = 20_000.0,
        write_deadline_us: float = 2_500_000.0,
        read_deadline_us: float = 1_200_000.0,
        snapshot_interval: int = 64,
        fsync_policy: str = "batch",
    ) -> None:
        self.index = index
        self.peer_mids = tuple(peer_mids)
        self.quorum = quorum
        self.claim_primary = claim_primary
        self.repl_interval_us = repl_interval_us
        self.write_deadline_us = write_deadline_us
        self.read_deadline_us = read_deadline_us
        self.snapshot_interval = snapshot_interval
        self.fsync_policy = fsync_policy
        #: Durable storage, bound at initialization when the node has a
        #: disk; None on diskless nodes (the amnesiac SODA default).
        self.storage: Optional[ReplicaStorage] = None

        self.epoch = 0
        self.primary = False
        self.log: List[Entry] = []
        self.commit = 0
        #: key -> (version, value token) of committed state.
        self.values: Dict[int, Tuple[int, int]] = {}
        #: token -> log index, over the whole log (committed or not).
        self.dedup: Dict[int, int] = {}
        #: log index -> (status, version, token), committed entries only.
        self.results: Dict[int, Tuple[str, int, int]] = {}
        #: peer -> fingerprint-verified replicated length.
        self.matched: Dict[int, int] = {}
        #: peer -> next log index to APPEND from.
        self.next_index: Dict[int, int] = {}
        #: parked writes: (asker, log index, token, arrival time).
        self.waiters: List[Tuple[object, int, int, float]] = []
        #: parked reads: (asker, key, arrival time).
        self.pending_reads: List[Tuple[object, int, float]] = []
        self._takeover_requested = False
        self._quorum_confirmed_at = float("-inf")
        #: Did the last round run without work (the idle round)?
        self._idle_round_ran = False

    # -- program -------------------------------------------------------

    def initialization(self, api, parent_mid):
        disk = api.node_disk
        if disk is not None:
            self.storage = ReplicaStorage(
                disk,
                snapshot_interval=self.snapshot_interval,
                fsync_policy=self.fsync_policy,
            )
            recovered = self.storage.recover()
            if recovered is not None:
                # WAL-over-snapshot replay: rejoin with everything we
                # ever attested to holding, instead of §3.5.2 amnesia.
                self.epoch = recovered.epoch
                self.log = [Entry(*fields) for fields in recovered.log]
                self.dedup = {
                    entry.token: i
                    for i, entry in enumerate(self.log)
                    if entry.token
                }
                self._advance_commit_to(api, recovered.commit)
                api.sim.trace.record(
                    api.now, "kv.recover",
                    api.my_mid, self.epoch, len(self.log), self.commit, recovered.clean,
                    recovered.source,
                )
            else:
                # epoch 0, no entries, commit 0, clean.
                api.sim.trace.record(
                    api.now, "kv.recover",
                    api.my_mid, 0, 0, 0, True, "amnesia",
                )
        yield from api.advertise(REPL_PATTERN)

    def handler(self, api, event):
        if not event.is_arrival:
            return
        if event.pattern == KV_PATTERN:
            yield from self._handle_kv(api, event)
        elif event.pattern == REPL_PATTERN:
            yield from self._handle_repl(api, event)

    def task(self, api):
        if self.claim_primary:
            yield from self._takeover(api)
        if api.kernel.epoch and not self.primary:  # a rebooted backup
            yield from self._hello(api)
        while True:
            if self._takeover_requested:
                self._takeover_requested = False
                if not self.primary:
                    yield from self._takeover(api)
            if self.primary:
                yield from self._replicate_round(api)
            yield from self._serve(api)
            if self._has_work():
                yield api.compute(self.repl_interval_us)
            elif self.primary and not self._idle_round_ran:
                # WAIT: the handler invocation that parks work wakes us;
                # else the idle round carries the commit index out.
                idle_until = api.now + IDLE_ROUND_US
                yield from api.poll(
                    lambda: self._has_work() or api.now >= idle_until,
                    tick_us=IDLE_ROUND_US,
                )
            else:
                # WAIT with no timer: every input of ``_has_work`` is
                # written by a handler invocation or by this task.
                yield from api.poll(self._has_work, tick_us=math.inf)

    def _has_work(self) -> bool:
        """Does the next round have something to say?"""
        return self._has_to_confirm() or self._has_to_ship()

    def _has_to_ship(self) -> bool:
        """An APPEND's cargo: a peer lacks entries (commit rides along)."""
        if not self.primary:
            return False
        length = len(self.log)
        return any(
            self.next_index.get(mid, 0) < length
            or self.matched.get(mid, 0) < length
            for mid in self.peer_mids
        )

    def _has_to_confirm(self) -> bool:
        """A CONFIRM's cargo: an op or TAKEOVER is parked, or a peer is
        not fingerprint-matched to the log end."""
        if self._takeover_requested or self.waiters or self.pending_reads:
            return True
        if not self.primary:
            return False
        length = len(self.log)
        return any(self.matched.get(mid, 0) < length for mid in self.peer_mids)

    # -- client operations (KV_PATTERN) --------------------------------

    def _handle_kv(self, api, event):
        op, key, token, _expected = unpack_op(event.arg)
        asker = event.asker
        if op == OP_GET:
            if not self.primary:
                yield from self._reject(api, asker)
            else:
                self.pending_reads.append((asker, key, api.now))
            return
        if token in self.dedup:
            # A retry of a write already in the log: at-most-once means
            # we answer from the log, never append again.
            idx = self.dedup[token]
            if idx < self.commit:
                yield from self._reply_result(api, asker, idx)
            else:
                self.waiters.append((asker, idx, token, api.now))
            return
        if not self.primary:
            yield from self._reject(api, asker)
            return
        idx = len(self.log)
        entry = Entry(self.epoch, op, key, token, _expected)
        self.log.append(entry)
        self._persist_entry(idx, entry)
        self.dedup[token] = idx
        self.waiters.append((asker, idx, token, api.now))

    # -- replication traffic (REPL_PATTERN) ----------------------------

    def _handle_repl(self, api, event):
        header = unpack_repl(event.arg)
        asker = event.asker
        if header.msg == MSG_APPEND:
            yield from self._handle_append(api, asker, header, event.put_size)
        elif header.msg in (MSG_CONFIRM, MSG_VOTE):
            granted = False
            if header.msg == MSG_VOTE:
                # A vote grant *fences*: adopting the epoch here is what
                # stops a deposed primary from ever again assembling a
                # current-epoch confirmation quorum.
                if header.epoch > self.epoch:
                    yield from self._adopt(api, header.epoch)
                    granted = True
            elif header.epoch >= self.epoch:
                yield from self._adopt(api, header.epoch)
                granted = not (self.primary and header.epoch == self.epoch)
            # The reply below *attests* our state (a grant is a fencing
            # promise; a CONFIRM claims log possession) — everything it
            # claims must be durable before it leaves the node.
            self._persist_sync()
            last_epoch = self.log[-1].epoch if self.log else 0
            yield from self._accept_arg(
                api,
                asker,
                pack_status(granted, self.epoch, last_epoch, len(self.log)),
            )
        elif header.msg == MSG_FETCH:
            start = header.from_index
            entries = (
                self.log[start : start + BATCH_ENTRIES]
                if start <= len(self.log)
                else []
            )
            try:
                yield from api.accept_get(
                    asker,
                    arg=pack_ack(ACK_OK, len(self.log)),
                    put=encode_entries(self.commit, entries),
                )
            except SodaError:
                pass
        elif header.msg == MSG_TAKEOVER:
            self._takeover_requested = True
            yield from self._accept_arg(api, asker, 0)
        elif header.msg == MSG_HELLO:
            # The peer rebooted: whatever we matched may be gone (an
            # amnesiac log, a lost commit mark).  Unmatched is work.
            self.matched.pop(asker.mid, None)
            yield from self._accept_arg(api, asker, 0)

    def _handle_append(self, api, asker, header, put_size):
        if header.epoch < self.epoch:
            yield from self._accept_arg(
                api, asker, pack_ack(ACK_FENCED, self.epoch)
            )
            return
        yield from self._adopt(api, header.epoch)
        if header.from_index > len(self.log):
            yield from self._accept_arg(
                api, asker, pack_ack(ACK_GAP, len(self.log))
            )
            return
        if (
            header.from_index > 0
            and self.log[header.from_index - 1].epoch != header.prev_epoch
        ):
            # Conflicting history at the join point: tell the sender to
            # restart from our commit, below which logs always agree.
            yield from self._accept_arg(
                api, asker, pack_ack(ACK_MISMATCH, self.commit)
            )
            return
        buf = Buffer(put_size)
        try:
            yield from api.accept_put(
                asker, arg=pack_ack(ACK_OK, len(self.log)), get=buf
            )
        except SodaError:
            return
        # The transfer blocked; a vote or a higher-epoch APPEND may have
        # fenced us meanwhile.  The ACK promised nothing about
        # application — commitment rides on CONFIRM fingerprints — so
        # dropping the batch here is always safe.
        if header.epoch < self.epoch or header.from_index > len(self.log):
            return
        if (
            header.from_index > 0
            and self.log[header.from_index - 1].epoch != header.prev_epoch
        ):
            return
        sender_commit, entries = decode_entries(buf.data)
        if self._append_entries(api, header.from_index, entries):
            self._advance_commit_to(api, min(sender_commit, len(self.log)))

    # -- log machinery -------------------------------------------------

    def _append_entries(self, api, from_index: int, entries: List[Entry]) -> bool:
        """Graft ``entries`` at ``from_index``; truncate conflicts.

        Same-(index, epoch) entries are unique (one writer per epoch),
        so an epoch match means the entry is already present.
        """
        i = from_index
        appended = 0
        for entry in entries:
            if i < len(self.log):
                if self.log[i].epoch == entry.epoch:
                    i += 1
                    continue
                if i < self.commit:
                    api.sim.trace.record(
                        api.now, "kv.error",
                        api.my_mid, "truncate_below_commit", i, self.commit,
                    )
                    return False
                self._truncate_to(api, i)
            self.log.append(entry)
            self._persist_entry(i, entry)
            if entry.token:
                self.dedup[entry.token] = i
            appended += 1
            i += 1
        if appended:
            api.sim.trace.record(
                api.now, "kv.sync",
                api.my_mid, from_index, appended, len(self.log),
            )
        return True

    def _truncate_to(self, api, index: int) -> None:
        for entry in self.log[index:]:
            if entry.token and self.dedup.get(entry.token, -1) >= index:
                del self.dedup[entry.token]
        del self.log[index:]
        if self.storage is not None:
            self.storage.log_truncate(index)

    def _advance_commit_to(self, api, target: int) -> None:
        advanced = self.commit < target
        while self.commit < target:
            self._apply(api, self.commit)
            self.commit += 1
        if advanced and self.storage is not None:
            self.storage.log_commit(self.commit)
            self.storage.maybe_snapshot(self.epoch, self.commit, self.log)

    def _apply(self, api, index: int) -> None:
        entry = self.log[index]
        applied = False
        if entry.op == OP_NOOP:
            status, version, token = "ok", 0, 0
        elif entry.op == OP_CAS and (
            self.values.get(entry.key, (0, 0))[1] != entry.expected
        ):
            version, token = self.values.get(entry.key, (0, 0))
            status = "cas_fail"
        else:
            applied = True
            version, token = index + 1, entry.token
            self.values[entry.key] = (version, token)
            status = "ok"
        self.results[index] = (status, version, token)
        api.sim.trace.record(
            api.now, "kv.apply",
            api.my_mid, index, entry.epoch, OP_NAMES[entry.op], entry.key, entry.token,
            version, applied,
        )

    # -- primary duty: replicate, confirm, commit ----------------------

    def _replicate_round(self, api):
        round_start = api.now
        epoch0, commit0 = self.epoch, self.commit
        # Each phase runs only with something to carry.  A read-only
        # round is a CONFIRM alone (no peer lacks an entry).  A round
        # with neither is the idle heartbeat: its empty APPEND carries
        # the commit index and its ACK reports FENCED or GAP, which is
        # all a calm needs; a GAP lowers ``matched`` so the next round
        # has work.
        to_ship, to_confirm = self._has_to_ship(), self._has_to_confirm()
        self._idle_round_ran = not (to_ship or to_confirm)
        sends = []
        for mid in self.peer_mids if to_ship or not to_confirm else ():
            from_i = min(self.next_index.get(mid, 0), len(self.log))
            entries = self.log[from_i : from_i + BATCH_ENTRIES]
            prev_epoch = self.log[from_i - 1].epoch if from_i > 0 else 0
            tid = yield from api.request(
                ServerSignature(mid, REPL_PATTERN),
                arg=pack_repl(
                    MSG_APPEND, self.epoch, prev_epoch, from_i, len(entries)
                ),
                put=encode_entries(commit0, entries),
            )
            sends.append((mid, from_i, len(entries), tid, api.watch_completion(tid)))
        for mid, from_i, count, tid, future in sends:
            completion = yield from api.wait_completion(tid, future)
            if self.epoch != epoch0 or not self.primary:
                return
            if (
                completion.status is not RequestStatus.COMPLETED
                or completion.arg < 0
            ):
                continue
            code, value = unpack_ack(completion.arg)
            if code == ACK_OK:
                self.next_index[mid] = from_i + count
            elif code in (ACK_GAP, ACK_MISMATCH):
                self.next_index[mid] = min(value, len(self.log))
                if code == ACK_GAP:
                    self.matched[mid] = min(self.matched.get(mid, 0), value)
            elif code == ACK_FENCED:
                yield from self._adopt(api, value)
                return
        if not to_confirm:
            return
        # The quorum count below includes our own log length: make it
        # durable before counting ourselves, same as peers do before
        # their CONFIRM replies.
        self._persist_sync()
        confirms = []
        for mid in self.peer_mids:
            tid = yield from api.request(
                ServerSignature(mid, REPL_PATTERN),
                arg=pack_repl(MSG_CONFIRM, self.epoch),
            )
            confirms.append((mid, tid, api.watch_completion(tid)))
        granted = 0
        for mid, tid, future in confirms:
            completion = yield from api.wait_completion(tid, future)
            if self.epoch != epoch0 or not self.primary:
                return
            if (
                completion.status is not RequestStatus.COMPLETED
                or completion.arg < 0
            ):
                continue
            status = unpack_status(completion.arg)
            if status.epoch > self.epoch:
                yield from self._adopt(api, status.epoch)
                return
            if not status.granted or status.epoch != self.epoch:
                continue
            granted += 1
            length = status.length
            if length <= len(self.log) and (
                length == 0 or self.log[length - 1].epoch == status.last_epoch
            ):
                self.matched[mid] = length
                if self.next_index.get(mid, 0) < length:
                    self.next_index[mid] = length
            else:
                # Fingerprint disagrees: walk the peer back to commit.
                self.next_index[mid] = min(
                    self.next_index.get(mid, length), self.commit
                )
        if granted >= self.quorum - 1:
            self._quorum_confirmed_at = round_start
            lengths = sorted(
                [len(self.log)]
                + [self.matched.get(mid, 0) for mid in self.peer_mids],
                reverse=True,
            )
            candidate = lengths[self.quorum - 1]
            if (
                candidate > self.commit
                and self.log[candidate - 1].epoch == self.epoch
            ):
                self._advance_commit_to(api, candidate)

    # -- serving parked clients ----------------------------------------

    def _serve(self, api):
        now = api.now
        keep = []
        for waiter in self.waiters:
            asker, idx, token, arrived = waiter
            if idx < len(self.log) and self.log[idx].token != token:
                yield from self._reject(api, asker)  # entry was truncated
            elif idx < self.commit:
                yield from self._reply_result(api, asker, idx)
            elif (
                not self.primary
                or now - arrived > self.write_deadline_us
                or idx >= len(self.log)
            ):
                yield from self._reject(api, asker)
            else:
                keep.append(waiter)
        self.waiters = keep
        keep = []
        for read in self.pending_reads:
            asker, key, arrived = read
            if not self.primary or now - arrived > self.read_deadline_us:
                yield from self._reject(api, asker)
            elif (
                self._quorum_confirmed_at >= arrived
                and self.commit
                and self.log[self.commit - 1].epoch == self.epoch
            ):
                # Until this epoch's barrier commits, ``values`` may
                # predate a write the deposed primary acknowledged.
                version, token = self.values.get(key, (0, 0))
                yield from self._accept_arg(api, asker, pack_result(version, token))
            else:
                keep.append(read)
        self.pending_reads = keep

    def _reply_result(self, api, asker, index: int):
        status, version, token = self.results[index]
        arg = REPLY_CAS_FAIL if status == "cas_fail" else pack_result(version, token)
        yield from self._accept_arg(api, asker, arg)

    # -- rejoin and takeover (hello, vote, pull, claim) ----------------

    def _hello(self, api):
        """Tell the primary we rebooted, one REQUEST open at a time."""
        primaries = yield from api.discover_all(KV_PATTERN)
        for mid in primaries:
            yield from api.b_signal(
                ServerSignature(mid, REPL_PATTERN), arg=pack_repl(MSG_HELLO)
            )

    def _takeover(self, api, attempts: int = 8):
        api.sim.trace.record(api.now, "kv.takeover", api.my_mid, self.epoch)
        for attempt in range(attempts):
            if self.primary:
                return True
            base = self.epoch
            proposed = base + 1
            votes = []
            for mid in self.peer_mids:
                tid = yield from api.request(
                    ServerSignature(mid, REPL_PATTERN),
                    arg=pack_repl(MSG_VOTE, proposed),
                )
                votes.append((mid, tid, api.watch_completion(tid)))
            granters = []
            seen_epoch = self.epoch
            statuses = {}
            for mid, tid, future in votes:
                completion = yield from api.wait_completion(tid, future)
                if (
                    completion.status is not RequestStatus.COMPLETED
                    or completion.arg < 0
                ):
                    continue
                status = unpack_status(completion.arg)
                statuses[mid] = status
                seen_epoch = max(seen_epoch, status.epoch)
                if status.granted and status.epoch == proposed:
                    granters.append(mid)
            if self.epoch != base:
                continue  # granted a rival (or got fenced) mid-round
            if len(granters) < self.quorum - 1:
                if seen_epoch > self.epoch:
                    self.epoch = seen_epoch
                    self._persist_epoch()
                yield api.compute(
                    50_000.0 * (attempt + 1) * (1.0 + 0.17 * self.index)
                )
                continue
            self.epoch = proposed
            self._persist_epoch()
            own_last = self.log[-1].epoch if self.log else 0
            best: Optional[int] = None
            best_key = (own_last, len(self.log))
            for mid in granters:
                status = statuses[mid]
                if (status.last_epoch, status.length) > best_key:
                    best, best_key = mid, (status.last_epoch, status.length)
            if best is not None:
                pulled = yield from self._pull_log(api, best, best_key[1])
                if not pulled or self.epoch != proposed:
                    continue
            self.primary = True
            self.matched = {}
            self.next_index = {mid: self.commit for mid in self.peer_mids}
            self._quorum_confirmed_at = float("-inf")
            # The barrier no-op: commit can only advance onto an entry
            # of the current epoch, and this guarantees there is one.
            barrier = Entry(self.epoch, OP_NOOP, 0, 0, 0)
            self.log.append(barrier)
            self._persist_entry(len(self.log) - 1, barrier)
            self._persist_sync()
            api.sim.trace.record(
                api.now, "kv.promote",
                api.my_mid, self.epoch, len(self.log),
            )
            yield from api.advertise(KV_PATTERN)
            return True
        return False

    def _pull_log(self, api, mid: int, target_length: int):
        """Anti-entropy catch-up from a longer-logged granter."""
        start = self.commit
        epoch0 = self.epoch
        while start < target_length:
            buf = Buffer(ENTRY_BYTES * BATCH_ENTRIES + 8)
            completion = yield from api.b_exchange(
                ServerSignature(mid, REPL_PATTERN),
                arg=pack_repl(MSG_FETCH, from_index=start),
                get=buf,
            )
            if self.epoch != epoch0:
                return False
            if (
                completion.status is not RequestStatus.COMPLETED
                or completion.arg < 0
            ):
                return False
            _code, peer_length = unpack_ack(completion.arg)
            sender_commit, entries = decode_entries(buf.data)
            if not entries:
                return start >= peer_length
            if not self._append_entries(api, start, entries):
                return False
            self._advance_commit_to(api, min(sender_commit, len(self.log)))
            start += len(entries)
            target_length = min(target_length, peer_length)
        return True

    # -- durability hooks ----------------------------------------------
    #
    # All no-ops on a diskless node; on a full disk the storage flips
    # to degraded and they become no-ops again (availability over
    # durability — the replica keeps serving from memory).

    def _persist_entry(self, index: int, entry: Entry) -> None:
        if self.storage is not None:
            self.storage.log_entry(index, entry)

    def _persist_epoch(self) -> None:
        if self.storage is not None:
            self.storage.log_epoch(self.epoch)

    def _persist_sync(self) -> None:
        if self.storage is not None:
            self.storage.sync()

    # -- small helpers -------------------------------------------------

    def _adopt(self, api, epoch: int):
        """Adopt a (weakly) newer epoch; step down if we led an older one."""
        if epoch > self.epoch:
            self.epoch = epoch
            self._persist_epoch()
            self.matched = {}
            if self.primary:
                self.primary = False
                api.sim.trace.record(api.now, "kv.demote", api.my_mid, epoch)
                yield from api.unadvertise(KV_PATTERN)
        return
        yield  # pragma: no cover - keeps this a generator when epoch is old

    def _accept_arg(self, api, asker, arg: int):
        try:
            yield from api.accept_signal(asker, arg=arg)
        except SodaError:
            pass

    def _reject(self, api, asker):
        try:
            yield from api.reject(asker)
        except SodaError:
            pass
