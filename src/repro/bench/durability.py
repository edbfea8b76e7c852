"""``python -m repro bench durability``: the cost of not forgetting.

Three questions, all answered in *modelled* microseconds charged to the
``disk_io`` ledger category by :class:`SimDisk` — never wall clock, so
the committed ``BENCH_durability.json`` is byte-stable across machines:

* **replay** — how long does WAL-over-snapshot recovery take as the
  un-snapshotted log grows?  (Linear in records; the reason snapshots
  exist.)
* **snapshot interval** — the compaction tradeoff: frequent snapshots
  buy cheap recovery at a steady-state write premium.
* **fsync policy** — what per-record durability (``always``) costs over
  attestation-point batching (``batch``), with ``never`` as the
  lower bound that buys no durability at all.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.tables import dict_table, failing
from repro.durability.disk import SimDisk
from repro.durability.state import FSYNC_POLICIES, EntryTuple, ReplicaStorage
from repro.sim.tracing import CostLedger

__all__ = ["run_durability_bench"]

REPLAY_LOG_LENGTHS = (200, 1000, 5000)
SNAPSHOT_INTERVALS = (16, 64, 256)
SNAPSHOT_WORKLOAD_RECORDS = 2000
FSYNC_WORKLOAD_RECORDS = 1000
FSYNC_BATCH_EVERY = 10  # records per explicit barrier under "batch"


def _entry(i: int) -> EntryTuple:
    return (1, 1, i % 8, 1000 + i, 0)


def _fill(
    storage: ReplicaStorage, records: int, sync_every: int
) -> List[EntryTuple]:
    log: List[EntryTuple] = []
    for i in range(records):
        entry = _entry(i)
        log.append(entry)
        storage.log_entry(i, entry)
        storage.log_commit(i)
        if sync_every and (i + 1) % sync_every == 0:
            storage.sync()
        storage.maybe_snapshot(1, i, log)
    storage.sync()
    return log


def _replay_cost(disk: SimDisk) -> Dict[str, float]:
    """Recover from ``disk`` under a fresh ledger; report what it cost."""
    ledger = CostLedger()
    disk.ledger = ledger
    storage = ReplicaStorage(disk)
    recovered = storage.recover()
    return {
        "replay_disk_us": round(ledger.get("disk_io"), 3),
        "wal_records_replayed": 0 if recovered is None else recovered.wal_records,
        "entries_recovered": 0 if recovered is None else len(recovered.log),
    }


def run_durability_bench() -> Dict[str, object]:
    # 1. Recovery replay time vs WAL length (no snapshots).
    replay = []
    for length in REPLAY_LOG_LENGTHS:
        disk = SimDisk()
        _fill(
            ReplicaStorage(disk, snapshot_interval=10**9),
            length,
            sync_every=FSYNC_BATCH_EVERY,
        )
        row = {"log_entries": length}
        row.update(_replay_cost(disk))
        replay.append(row)

    # 2. Snapshot-interval tradeoff at a fixed workload.
    intervals = []
    for interval in SNAPSHOT_INTERVALS:
        ledger = CostLedger()
        disk = SimDisk(ledger=ledger)
        storage = ReplicaStorage(disk, snapshot_interval=interval)
        _fill(storage, SNAPSHOT_WORKLOAD_RECORDS, sync_every=FSYNC_BATCH_EVERY)
        runtime_us = ledger.get("disk_io")
        row = {
            "snapshot_interval": interval,
            "snapshots_taken": storage.snapshots,
            "runtime_disk_us": round(runtime_us, 3),
        }
        row.update(_replay_cost(disk))
        intervals.append(row)

    # 3. Fsync-policy A/B at a fixed workload, no snapshots.
    policies = []
    for policy in FSYNC_POLICIES:
        ledger = CostLedger()
        disk = SimDisk(ledger=ledger)
        storage = ReplicaStorage(
            disk, snapshot_interval=10**9, fsync_policy=policy
        )
        _fill(storage, FSYNC_WORKLOAD_RECORDS, sync_every=FSYNC_BATCH_EVERY)
        policies.append(
            {
                "fsync_policy": policy,
                "records": FSYNC_WORKLOAD_RECORDS,
                "fsyncs": storage.syncs,
                "runtime_disk_us": round(ledger.get("disk_io"), 3),
            }
        )

    return {
        "benchmark": "durability",
        "units": "modelled microseconds of disk I/O (SimDisk cost model)",
        "replay": replay,
        "snapshot_intervals": intervals,
        "fsync_policies": policies,
    }


def run(ns) -> Dict[str, object]:
    return run_durability_bench()


def render(body) -> str:
    return "\n\n".join(
        [
            dict_table(
                "Recovery replay cost vs log length",
                (
                    ("log entries", "log_entries"),
                    ("replay us", "replay_disk_us"),
                    ("wal records", "wal_records_replayed"),
                ),
                body["replay"],
            ),
            dict_table(
                "Snapshot cadence: runtime cost vs replay saved",
                (
                    ("interval", "snapshot_interval"),
                    ("snapshots", "snapshots_taken"),
                    ("runtime us", "runtime_disk_us"),
                    ("replay us", "replay_disk_us"),
                ),
                body["snapshot_intervals"],
            ),
            dict_table(
                f"Fsync policy cost ({FSYNC_WORKLOAD_RECORDS} records)",
                (
                    ("policy", "fsync_policy"),
                    ("fsyncs", "fsyncs"),
                    ("runtime us", "runtime_disk_us"),
                ),
                body["fsync_policies"],
            ),
        ]
    )


def verdicts(body) -> List[str]:
    times = [row["replay_disk_us"] for row in body["replay"]]
    cost = {
        row["fsync_policy"]: row["runtime_disk_us"]
        for row in body["fsync_policies"]
    }
    return failing(
        [
            (times == sorted(times) and times[0] < times[-1],
             f"replay cost does not grow with log length: {times}"),
            (cost["always"] > cost["batch"] >= cost["never"],
             f"fsync cost is not always > batch >= never: {cost}"),
        ]
    )
