"""Supervision-driven failover for the replicated KV store.

:class:`KvFailoverSupervisor` extends the PR-4
:class:`~repro.recovery.supervisor.SupervisorProgram` — replicas are
ordinary supervised services (health-polled through their advertised
``REPL_PATTERN``, one broadcast per poll answering for all of them,
rebooted via BOOT/LOAD when their node dies) — with
one extra duty: watching ``KV_PATTERN`` for a live *primary*.  When the
primary stays undiscoverable for ``misses_to_promote`` consecutive
polls, the supervisor surveys the replicas' log fingerprints — every
probe leaves before any answer is read, so the answers are one
snapshot, not a walk through a log that grows meanwhile — and
nominates the most up-to-date one for takeover.

The supervisor nominates; it does not elect.  The nominee still has to
win a vote quorum (:meth:`KvReplica._takeover`), so a confused or
partitioned supervisor — or two supervisors — can never create two
primaries for one epoch: epoch grants are exclusive, and the fencing
they install is what deposes a stale primary resurfacing later.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.errors import RequestStatus
from repro.core.signatures import ServerSignature
from repro.recovery.supervisor import SupervisorProgram
from repro.replication.wire import (
    MSG_CONFIRM,
    MSG_TAKEOVER,
    KV_PATTERN,
    REPL_PATTERN,
    pack_repl,
    unpack_status,
)

__all__ = ["KvFailoverSupervisor"]


class KvFailoverSupervisor(SupervisorProgram):
    """Reboots dead replicas and nominates takeover candidates."""

    def __init__(
        self,
        services,
        replica_mids: Tuple[int, ...],
        quorum: int = 2,
        misses_to_promote: int = 3,
        **kwargs,
    ) -> None:
        super().__init__(services, **kwargs)
        self.replica_mids = tuple(replica_mids)
        self.quorum = quorum
        self.misses_to_promote = misses_to_promote
        self.promotions_sent = 0
        self._primary_misses = 0

    def task(self, api):
        while True:
            yield from self._poll_all(api)
            yield from self._check_primary(api)
            yield api.compute(self.poll_interval_us)

    def _check_primary(self, api):
        mids = yield from api.discover_all(KV_PATTERN, max_replies=8)
        if mids:
            self._primary_misses = 0
            return
        self._primary_misses += 1
        if self._primary_misses < self.misses_to_promote:
            return
        self._primary_misses = 0
        # Survey fingerprints; a probe CONFIRM at epoch 0 is never a
        # grant, it just reads (epoch, last_epoch, length) back.  All
        # probes leave before any answer is read: one after another, a
        # write committed between two answers could make a backup look
        # longer than the live primary.
        probes = []
        for mid in self.replica_mids:
            tid = yield from api.request(
                ServerSignature(mid, REPL_PATTERN),
                arg=pack_repl(MSG_CONFIRM, 0),
            )
            probes.append((mid, tid, api.watch_completion(tid)))
        statuses = {}
        for mid, tid, future in probes:
            completion = yield from api.wait_completion(tid, future)
            if (
                completion.status is RequestStatus.COMPLETED
                and completion.arg >= 0
            ):
                statuses[mid] = unpack_status(completion.arg)
        if len(statuses) < self.quorum:
            return  # too little of the cluster visible to elect safely
        best = max(
            statuses,
            key=lambda mid: (statuses[mid].last_epoch, statuses[mid].length),
        )
        api.sim.trace.record(
            api.now, "kv.takeover_sent",
            api.my_mid, best, len(statuses),
        )
        self.promotions_sent += 1
        yield from api.b_signal(
            ServerSignature(best, REPL_PATTERN), arg=pack_repl(MSG_TAKEOVER)
        )
