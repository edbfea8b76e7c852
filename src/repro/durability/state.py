"""``ReplicaStorage``: the KV replica's persistence facade.

What a replica must not forget (docs/REPLICATION.md):

* its **epoch** — a vote grant is a promise never to confirm an older
  primary again; forgetting it re-opens the split-brain the fencing
  closed;
* its **log entries** — a CONFIRM attests "I hold the log up to here";
  an acknowledged write exists *because* a quorum made that attestation;
* **truncations** and the **commit mark** — so replay reconstructs the
  exact log shape, not just its contents.

Each of those becomes one WAL record.  Periodically the whole state is
folded into a snapshot (atomic install, :mod:`repro.durability.
snapshot`) and the WAL starts a fresh segment — bounding replay time,
which is the tradeoff ``python -m repro bench durability`` measures.

Recovery picks the newest generation whose snapshot validates *and*
whose WAL segment exists (an install can crash between the two), then
replays the segment over it; a torn tail truncates at the last good
record.  If no generation is usable — bit-rot ate the only snapshot —
``recover`` returns ``None`` and the replica falls back to the
amnesiac path: rejoin empty, let anti-entropy repair it.

Fsync policies: ``always`` syncs after every record (one barrier per
append), ``batch`` leaves syncing to the caller's explicit barriers
(the replica syncs before any CONFIRM/VOTE reply and before counting
its own quorum — the protocol points where durability is attested),
``never`` is for the bench's lower bound only.  A commit mark (only a
lower bound of the primary's commit) asks for no barrier: it rides the next.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.durability.disk import DiskError, DiskFullError
from repro.durability.snapshot import (
    parse_snap_seq,
    read_snapshot,
    snap_name,
    write_snapshot,
)
from repro.durability.wal import WriteAheadLog, wal_name

__all__ = ["FSYNC_POLICIES", "EntryTuple", "RecoveredState", "ReplicaStorage"]

#: (epoch, op, key, token, expected) — the durable shape of one log
#: entry.  This layer deliberately does not import the replication
#: package's ``Entry`` dataclass: durability sits *below* replication,
#: and the replica converts at the boundary.
EntryTuple = Tuple[int, int, int, int, int]


def _entry_fields(entry) -> EntryTuple:
    """Accept a plain tuple or anything Entry-shaped."""
    if isinstance(entry, tuple):
        return entry
    return (entry.epoch, entry.op, entry.key, entry.token, entry.expected)

REC_ENTRY = 0x02
REC_EPOCH = 0x03
REC_COMMIT = 0x04
REC_TRUNCATE = 0x05

_ENTRY_REC = struct.Struct("!IHBBII")  # index + Entry fields
_U32 = struct.Struct("!I")

FSYNC_POLICIES = ("always", "batch", "never")


@dataclass
class RecoveredState:
    """What the disk gave back: the durable replica state."""

    epoch: int
    commit: int
    log: List[EntryTuple]
    #: False when a torn WAL tail was truncated during replay.
    clean: bool
    source: str  # "snapshot+wal" | "wal"
    wal_records: int


class ReplicaStorage:
    def __init__(
        self,
        disk,
        snapshot_interval: int = 64,
        fsync_policy: str = "batch",
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, "
                f"got {fsync_policy!r}"
            )
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        self.disk = disk
        self.snapshot_interval = snapshot_interval
        self.fsync_policy = fsync_policy
        self._seq = 0
        self._wal = WriteAheadLog(disk, wal_name(0))
        self._dirty = False
        self._records_since_snapshot = 0
        #: Set on the first failed write (full disk): the store keeps
        #: serving from memory but stops attesting durability.
        self.degraded = False
        self.appends = 0
        self.syncs = 0
        self.snapshots = 0
        self.snapshot_failures = 0

    # -- recovery ------------------------------------------------------

    def recover(self) -> Optional[RecoveredState]:
        """Load the newest usable generation; ``None`` = amnesia."""
        seqs = sorted(
            (
                seq
                for seq in map(parse_snap_seq, self.disk.list_files())
                if seq is not None
            ),
            reverse=True,
        )
        for seq in seqs:
            if not self.disk.exists(wal_name(seq)):
                continue  # install crashed before the new segment
            blob = read_snapshot(self.disk, seq)
            if blob is None:
                continue  # torn or bit-rotted snapshot
            try:
                state = json.loads(blob.decode("utf-8"))
                base = [
                    (int(a), int(b), int(c), int(d), int(e))
                    for a, b, c, d, e in state["log"]
                ]
                epoch, commit = int(state["e"]), int(state["c"])
            except (ValueError, KeyError, TypeError):
                continue
            return self._replay(seq, epoch, commit, base, "snapshot+wal")
        if self.disk.exists(wal_name(0)):
            return self._replay(0, 0, 0, [], "wal")
        return None

    def _replay(
        self,
        seq: int,
        epoch: int,
        commit: int,
        log: List[EntryTuple],
        source: str,
    ) -> RecoveredState:
        self._seq = seq
        self._wal = WriteAheadLog(self.disk, wal_name(seq))
        records, clean = self._wal.replay()
        for rtype, payload in records:
            try:
                if rtype == REC_ENTRY:
                    index, e, op, key, token, expected = _ENTRY_REC.unpack(
                        payload
                    )
                    if index > len(log):
                        clean = False  # gap: impossible tail, stop replay
                        break
                    del log[index:]
                    log.append((e, op, key, token, expected))
                elif rtype == REC_EPOCH:
                    epoch = _U32.unpack(payload)[0]
                elif rtype == REC_COMMIT:
                    commit = _U32.unpack(payload)[0]
                elif rtype == REC_TRUNCATE:
                    del log[_U32.unpack(payload)[0] :]
                # Unknown record types are skipped (forward compat).
            except struct.error:
                clean = False
                break
        return RecoveredState(
            epoch=epoch,
            commit=min(commit, len(log)),
            log=log,
            clean=clean,
            source=source,
            wal_records=len(records),
        )

    # -- mutation ------------------------------------------------------

    def log_entry(self, index: int, entry) -> None:
        self._append(REC_ENTRY, _ENTRY_REC.pack(index, *_entry_fields(entry)))

    def log_truncate(self, index: int) -> None:
        self._append(REC_TRUNCATE, _U32.pack(index))

    def log_epoch(self, epoch: int) -> None:
        self._append(REC_EPOCH, _U32.pack(epoch))

    def log_commit(self, commit: int) -> None:
        self._append(REC_COMMIT, _U32.pack(commit))

    def _append(self, rtype: int, payload: bytes) -> None:
        if self.degraded:
            return
        try:
            self._wal.append(rtype, payload)
        except DiskFullError:
            self.degraded = True
            return
        self.appends += 1
        self._records_since_snapshot += 1
        # A commit mark attests nothing: it rides the next barrier.
        self._dirty |= rtype != REC_COMMIT or self.fsync_policy == "always"
        if self.fsync_policy == "always":
            self.sync()

    def sync(self) -> None:
        """Make everything appended so far durable (policy permitting)."""
        if self.degraded or not self._dirty or self.fsync_policy == "never":
            return
        self._wal.sync()
        self.syncs += 1
        self._dirty = False

    # -- snapshotting --------------------------------------------------

    def maybe_snapshot(self, epoch: int, commit: int, log) -> bool:
        """Fold state into a new generation once enough WAL accrued."""
        if self.degraded:
            return False
        if self._records_since_snapshot < self.snapshot_interval:
            return False
        seq = self._seq + 1
        blob = json.dumps(
            {
                "e": epoch,
                "c": commit,
                "log": [list(_entry_fields(e)) for e in log],
            },
            separators=(",", ":"),
        ).encode("utf-8")
        try:
            write_snapshot(self.disk, seq, blob)
            # The fresh (empty) segment must be durable before the old
            # generation is GC'd: recovery requires snapshot AND segment.
            self.disk.delete(wal_name(seq))
            self.disk.write(wal_name(seq), 0, b"")
            self.disk.fsync(wal_name(seq))
        except DiskError:
            self.snapshot_failures += 1
            return False
        old = self._seq
        self._seq = seq
        self._wal = WriteAheadLog(self.disk, wal_name(seq))
        self._dirty = False
        self._records_since_snapshot = 0
        self.snapshots += 1
        self.disk.delete(wal_name(old))
        self.disk.delete(snap_name(old))
        return True

    def counter_snapshot(self) -> dict:
        return {
            "appends": self.appends,
            "syncs": self.syncs,
            "snapshots": self.snapshots,
            "snapshot_failures": self.snapshot_failures,
            "degraded": self.degraded,
        }
