"""Durability bench: the body's schema (modeled time, not wall).

Its health predicate — replay cost grows with the log, fsync cost is
always > batch >= never — is ``repro.bench.durability.verdicts``, and
its determinism is the byte comparison of ``bench durability --check``;
tests/bench/test_registry.py runs both against the committed snapshot.
"""

from repro.bench.durability import run_durability_bench


def test_bench_schema_and_determinism():
    payload = run_durability_bench()
    assert payload["benchmark"] == "durability"
    assert "disk I/O" in payload["units"]

    replay = payload["replay"]
    assert [row["log_entries"] for row in replay] == [200, 1000, 5000]
    for row in replay:
        assert row["wal_records_replayed"] > 0
        assert row["replay_disk_us"] > 0
        assert row["entries_recovered"] == row["log_entries"]

    intervals = payload["snapshot_intervals"]
    assert [row["snapshot_interval"] for row in intervals] == [16, 64, 256]
    for row in intervals:
        assert row["snapshots_taken"] >= 1
        assert row["replay_disk_us"] >= 0
        assert row["entries_recovered"] == 2000
    # Tighter snapshot cadence buys cheaper replay at higher runtime cost.
    assert intervals[0]["runtime_disk_us"] > intervals[-1]["runtime_disk_us"]

    policies = {row["fsync_policy"]: row for row in payload["fsync_policies"]}
    assert set(policies) == {"always", "batch", "never"}
    assert policies["never"]["fsyncs"] == 0
    assert policies["always"]["fsyncs"] > policies["batch"]["fsyncs"] > 0
