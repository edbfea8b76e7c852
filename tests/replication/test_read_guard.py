"""A new primary serves no GET before its barrier commits (Raft §8).

A quorum CONFIRM round can be granted while the round's APPEND to a
surviving peer failed: the grant then fingerprint-matches the peer's
old log, which lacks the promotion's barrier no-op, and commit stays
below it.  ``values`` may then predate a write the deposed primary
acknowledged, so ``KvReplica._serve`` waits until commit holds an entry
of the primary's own epoch as well.

Fails with that guard dropped from ``_serve`` (the read is answered at
once, with the value from before the acknowledged write).
"""

from types import SimpleNamespace

from repro.replication.store import KvReplica
from repro.replication.wire import (
    OP_NOOP,
    OP_PUT,
    Entry,
    make_token,
    pack_result,
)


class _StubApi:
    """What ``_serve`` and ``_advance_commit_to`` touch, recording the
    replies ``accept_signal`` and ``reject`` would send."""

    def __init__(self, now: float) -> None:
        self.now = now
        self.my_mid = 1
        self.sim = SimpleNamespace(trace=SimpleNamespace(record=self._record))
        self.applied = []
        self.accepted = []
        self.rejected = []

    def _record(self, _now, category, *values):
        if category == "kv.apply":
            self.applied.append(values[1])

    def accept_signal(self, asker, arg):
        self.accepted.append((asker, arg))
        return
        yield  # pragma: no cover - a generator, like the real call

    def reject(self, asker):
        self.rejected.append(asker)
        return
        yield  # pragma: no cover - a generator, like the real call


def _drain(gen) -> None:
    for _ in gen:
        pass


def test_parked_get_waits_for_the_barrier_to_commit():
    key, token = 5, make_token(7, 1)
    replica = KvReplica(index=1, peer_mids=(0, 2))
    # Promoted at epoch 2 over a log whose last write (epoch 1) the old
    # primary acknowledged; the barrier no-op follows it.
    replica.epoch, replica.primary = 2, True
    replica.log = [
        Entry(1, OP_PUT, key, token, 0),
        Entry(2, OP_NOOP, 0, 0, 0),
    ]
    replica.dedup = {token: 0}
    # A quorum round that started after the GET arrived was granted,
    # but commit has not reached the barrier: nothing applied yet.
    asker = object()
    replica.pending_reads = [(asker, key, 100.0)]
    replica._quorum_confirmed_at = 200.0
    api = _StubApi(now=300.0)

    _drain(replica._serve(api))
    assert api.accepted == [] and api.rejected == []
    assert replica.pending_reads == [(asker, key, 100.0)]

    replica._advance_commit_to(api, len(replica.log))
    assert api.applied == [0, 1]
    _drain(replica._serve(api))
    assert api.accepted == [(asker, pack_result(1, token))]
    assert replica.pending_reads == []
