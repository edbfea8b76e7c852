"""ReplicaStorage: WAL-over-snapshot recovery under injected crashes."""

import pytest

from repro.chaos.scenario import PowerLoss, Scenario
from repro.durability.disk import (
    DiskFaultPlan,
    FaultDisk,
    SimDisk,
)
from repro.durability.snapshot import snap_name
from repro.durability.state import ReplicaStorage
from repro.durability.wal import wal_name
from repro.replication.consistency import check_kv_consistency
from repro.workloads import build_workload


def entry(i, epoch=1):
    return (epoch, 1, i % 4, 1000 + i, 0)


def reopen(disk, **kwargs):
    """A reboot: fresh storage over the same media."""
    return ReplicaStorage(disk, **kwargs)


def test_empty_disk_recovers_to_amnesia():
    assert ReplicaStorage(SimDisk()).recover() is None


def test_wal_only_recovery_roundtrip():
    disk = SimDisk()
    st = ReplicaStorage(disk, snapshot_interval=10**9)
    for i in range(5):
        st.log_entry(i, entry(i))
    st.log_epoch(3)
    st.log_commit(4)
    st.sync()
    r = reopen(disk).recover()
    assert r is not None and r.clean and r.source == "wal"
    assert r.epoch == 3 and r.commit == 4
    assert r.log == [entry(i) for i in range(5)]


def test_snapshot_plus_wal_recovery():
    disk = SimDisk()
    st = ReplicaStorage(disk, snapshot_interval=4)
    log = []
    for i in range(10):
        log.append(entry(i))
        st.log_entry(i, entry(i))
        st.log_commit(i + 1)
        st.maybe_snapshot(1, i + 1, log)
    st.sync()
    assert st.snapshots >= 1
    r = reopen(disk).recover()
    assert r is not None and r.source == "snapshot+wal"
    assert r.log == log and r.commit == 10
    # Old generations were garbage-collected.
    assert len([n for n in disk.list_files() if n.startswith("wal-")]) == 1
    assert len([n for n in disk.list_files() if n.startswith("snap-")]) == 1


def test_truncate_and_overwrite_replay():
    disk = SimDisk()
    st = ReplicaStorage(disk, snapshot_interval=10**9)
    for i in range(6):
        st.log_entry(i, entry(i, epoch=1))
    st.log_commit(3)
    # Conflict: truncate the uncommitted suffix, graft epoch-2 entries.
    st.log_truncate(3)
    st.log_entry(3, entry(30, epoch=2))
    st.log_entry(4, entry(31, epoch=2))
    st.sync()
    r = reopen(disk).recover()
    assert r is not None
    assert r.log == [entry(0), entry(1), entry(2), entry(30, 2), entry(31, 2)]


def test_entry_overwrite_at_existing_index_truncates_after():
    disk = SimDisk()
    st = ReplicaStorage(disk, snapshot_interval=10**9)
    for i in range(5):
        st.log_entry(i, entry(i, epoch=1))
    # An ENTRY record at index 2 implies everything after it is gone.
    st.log_entry(2, entry(99, epoch=2))
    st.sync()
    r = reopen(disk).recover()
    assert r.log == [entry(0), entry(1), entry(99, 2)]


def test_commit_clamped_to_log_length():
    disk = SimDisk()
    st = ReplicaStorage(disk, snapshot_interval=10**9)
    st.log_entry(0, entry(0))
    st.log_commit(40)  # bogus/torn state must not produce commit > len
    st.sync()
    r = reopen(disk).recover()
    assert r.commit == 1


def test_unsynced_tail_lost_on_power_loss_but_synced_prefix_survives():
    disk = FaultDisk(SimDisk(), DiskFaultPlan(seed=1))
    st = ReplicaStorage(disk, snapshot_interval=10**9)
    st.log_entry(0, entry(0))
    st.log_entry(1, entry(1))
    st.sync()
    st.log_entry(2, entry(2))  # never synced
    disk.power_loss()
    r = reopen(disk).recover()
    assert r is not None and r.clean
    assert r.log == [entry(0), entry(1)]


def test_torn_tail_recovery_is_clean_prefix_and_reusable():
    disk = FaultDisk(SimDisk(), DiskFaultPlan(seed=2, torn_write_probability=1.0))
    st = ReplicaStorage(disk, snapshot_interval=10**9)
    st.log_entry(0, entry(0))
    st.sync()
    st.log_entry(1, entry(1))
    st.log_entry(2, entry(2))
    disk.power_loss()  # tears the unsynced stream mid-record
    st2 = reopen(disk)
    r = st2.recover()
    assert r is not None
    assert r.log == [entry(i) for i in range(len(r.log))]  # honest prefix
    # The store keeps working after a torn recovery.
    nxt = len(r.log)
    st2.log_entry(nxt, entry(nxt))
    st2.sync()
    r2 = reopen(disk).recover()
    assert r2.clean and len(r2.log) == nxt + 1


def test_crash_between_snapshot_install_and_new_segment_falls_back():
    """The install dance can crash after the snapshot rename but before
    the fresh WAL segment exists; recovery must use the previous
    generation, which has not been GC'd yet."""
    disk = SimDisk()
    st = ReplicaStorage(disk, snapshot_interval=4)
    log = []
    for i in range(6):
        log.append(entry(i))
        st.log_entry(i, entry(i))
        st.log_commit(i + 1)
        st.maybe_snapshot(1, i + 1, log)
    st.sync()
    # Simulate the torn install: a newer snapshot appears with no
    # matching WAL segment.
    from repro.durability.snapshot import write_snapshot

    write_snapshot(disk, 99, b'{"e":9,"c":0,"log":[]}')
    assert not disk.exists(wal_name(99))
    r = reopen(disk).recover()
    assert r is not None and r.log == log  # generation 99 was skipped


def test_bitrotted_snapshot_falls_back_or_goes_amnesiac():
    disk = SimDisk()
    st = ReplicaStorage(disk, snapshot_interval=2)
    log = []
    for i in range(4):
        log.append(entry(i))
        st.log_entry(i, entry(i))
        st.log_commit(i + 1)
        st.maybe_snapshot(1, i + 1, log)
    st.sync()
    snaps = [n for n in disk.list_files() if n.startswith("snap-")]
    assert snaps
    data = bytearray(disk.read(snaps[0]))
    data[len(data) // 2] ^= 0x04
    disk.write(snaps[0], 0, bytes(data))
    r = reopen(disk).recover()
    # The rotted snapshot must never deserialize; with no older
    # generation the store honestly reports amnesia (anti-entropy
    # repairs it at the replication layer).
    assert r is None


def test_full_disk_degrades_without_crashing():
    plan = DiskFaultPlan(full_after_bytes=64)
    disk = FaultDisk(SimDisk(), plan)
    st = ReplicaStorage(disk, snapshot_interval=10**9)
    for i in range(20):
        st.log_entry(i, entry(i))  # eventually hits the budget
        st.sync()
    assert st.degraded
    assert plan.writes_rejected_full >= 1
    # Further mutation and sync are silent no-ops, not errors.
    st.log_entry(99, entry(99))
    st.sync()
    counters = st.counter_snapshot()
    assert counters["degraded"] is True


def test_fsync_policies():
    always = ReplicaStorage(SimDisk(), fsync_policy="always")
    always.log_entry(0, entry(0))
    assert always.syncs == 1  # one barrier per record

    batch = ReplicaStorage(SimDisk(), fsync_policy="batch")
    batch.log_entry(0, entry(0))
    assert batch.syncs == 0
    batch.sync()
    assert batch.syncs == 1
    batch.sync()  # not dirty: no extra barrier
    assert batch.syncs == 1

    never = ReplicaStorage(SimDisk(), fsync_policy="never")
    never.log_entry(0, entry(0))
    never.sync()
    assert never.syncs == 0

    with pytest.raises(ValueError):
        ReplicaStorage(SimDisk(), fsync_policy="sometimes")
    with pytest.raises(ValueError):
        ReplicaStorage(SimDisk(), snapshot_interval=0)


def test_batch_commit_mark_rides_the_next_barrier():
    """Under ``batch`` a commit mark alone leaves nothing to sync: it
    attests nothing, so it reaches disk with the next record that does."""
    disk = FaultDisk(SimDisk(), DiskFaultPlan(seed=3))
    st = ReplicaStorage(disk, snapshot_interval=10**9, fsync_policy="batch")
    st.log_entry(0, entry(0))
    st.sync()
    assert st.syncs == 1
    st.log_commit(1)
    st.sync()  # a commit mark alone: no barrier
    assert st.syncs == 1
    st.log_entry(1, entry(1))
    st.sync()  # the entry's barrier carries the commit mark too
    assert st.syncs == 2
    disk.power_loss()
    r = reopen(disk).recover()
    assert r.log == [entry(0), entry(1)] and r.commit == 1


def test_always_syncs_every_record_commit_marks_included():
    st = ReplicaStorage(SimDisk(), fsync_policy="always")
    st.log_entry(0, entry(0))
    st.log_commit(1)
    st.log_epoch(2)
    assert st.syncs == 3


def test_power_loss_drops_an_unsynced_commit_mark_to_the_previous_one():
    disk = FaultDisk(SimDisk(), DiskFaultPlan(seed=4))
    st = ReplicaStorage(disk, snapshot_interval=10**9)
    for i in range(3):
        st.log_entry(i, entry(i))
    st.log_commit(2)
    st.sync()
    st.log_commit(3)
    st.sync()  # no barrier: the mark stays in the page cache
    disk.power_loss()
    st2 = reopen(disk)
    r = st2.recover()
    assert r.clean and r.log == [entry(i) for i in range(3)]
    assert r.commit == 2  # a lower bound of what was committed
    # The store goes on from there.
    st2.log_commit(3)
    st2.log_entry(3, entry(3))
    st2.sync()
    r2 = reopen(disk).recover()
    assert r2.commit == 3 and len(r2.log) == 4


def test_replica_that_lost_its_commit_mark_rejoins():
    """A backup learns the last commit index from the idle round, whose
    APPEND asks for no barrier; a power loss in the calm then drops that
    mark.  The backup recovers the previous one and says HELLO, and the
    silent primary's next round brings it level.  Fails with the HELLO
    dropped."""
    loss_at = 6_000_000.0
    built = build_workload("kvstore", seed=1)
    Scenario(
        "calm_power_loss", (PowerLoss(at_us=loss_at, roles=("replica1",)),)
    ).run(built)
    records = built.net.sim.trace.records
    assert check_kv_consistency(records) == []
    assert max(
        r.time for r in records if r.category == "kv.result"
    ) < loss_at
    backup_mid = built.mid_of("replica1")
    held = 1 + max(
        r["index"] for r in records
        if r.category == "kv.apply" and r["mid"] == backup_mid
        and r.time < loss_at
    )
    (recovered,) = [
        r for r in records
        if r.category == "kv.recover" and r["mid"] == backup_mid
        and r.time > loss_at
    ]
    assert recovered["source"] != "amnesia"
    assert 0 < recovered["commit"] < held
    nodes = built.net.nodes
    primary = nodes[built.mid_of("replica0")].kernel.client.program
    backup = nodes[backup_mid].kernel.client.program
    assert backup.commit == primary.commit >= held
    assert backup.log == primary.log


def test_snapshot_failure_on_full_disk_keeps_old_generation():
    plan = DiskFaultPlan()
    disk = FaultDisk(SimDisk(), plan)
    st = ReplicaStorage(disk, snapshot_interval=2)
    log = [entry(0), entry(1), entry(2)]
    for i, e in enumerate(log):
        st.log_entry(i, e)
    st.sync()
    plan.full_after_bytes = 4  # snapshot blob cannot fit
    assert st.maybe_snapshot(1, 3, log) is False
    assert st.snapshot_failures == 1
    plan.full_after_bytes = None
    r = reopen(disk).recover()
    assert r is not None and r.log == log  # WAL generation intact
    assert not disk.exists(snap_name(1))
