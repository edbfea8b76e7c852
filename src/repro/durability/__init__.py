"""Durable node state: disks, WAL + snapshots, crash-consistent recovery.

The missing half of the §3.5.2 reboot story: SODA's BOOT/LOAD brings a
node back *amnesiac*, so every replica in :mod:`repro.replication` that
reboots must be repaired over the network.  This package gives a node a
local disk with a write-ahead log and periodic snapshots, so a rebooted
replica rejoins with its durable state — and an injectable fault disk
(torn writes, dropped fsyncs, bit-rot, full disk) to prove the recovery
path crash-consistent, ALICE-style.

Layers, bottom up:

* :mod:`repro.durability.disk` — the :class:`Disk` byte store with two
  backends (:class:`SimDisk` charges modelled I/O time to the cost
  ledger; :class:`FileDisk` is real files for the netreal backend),
  both wrapped by :class:`FaultDisk` + :class:`DiskFaultPlan`;
* :mod:`repro.durability.wal` — the CRC-framed record codec and
  :class:`WriteAheadLog` (decode returns the longest valid prefix and
  never raises — the property the fault disk attacks);
* :mod:`repro.durability.snapshot` — atomic write-fsync-rename
  snapshot installation;
* :mod:`repro.durability.state` — :class:`ReplicaStorage`, the
  KV replica's persistence facade: epoch/vote, log entries,
  truncations, commit marks, WAL-over-snapshot recovery.

``python -m repro bench durability`` (:mod:`repro.bench.durability`,
BENCH_durability.json) prices replay, snapshots and fsync policies.

See docs/DURABILITY.md for the full disk model and fault taxonomy.
"""

from repro.durability.disk import (
    Disk,
    DiskError,
    DiskFaultPlan,
    DiskFullError,
    FaultDisk,
    FileDisk,
    SimDisk,
)
from repro.durability.snapshot import read_snapshot, write_snapshot
from repro.durability.state import RecoveredState, ReplicaStorage
from repro.durability.wal import (
    MAX_RECORD_BYTES,
    WriteAheadLog,
    decode_records,
    encode_record,
)

__all__ = [
    "Disk",
    "DiskError",
    "DiskFaultPlan",
    "DiskFullError",
    "FaultDisk",
    "FileDisk",
    "MAX_RECORD_BYTES",
    "RecoveredState",
    "ReplicaStorage",
    "SimDisk",
    "WriteAheadLog",
    "decode_records",
    "encode_record",
    "read_snapshot",
    "write_snapshot",
]
