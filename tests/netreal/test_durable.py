"""Durable KV replicas over real sockets: WAL + snapshots on FileDisk.

One event loop, real loopback UDP, real files under ``tmp_path`` — the
whole cluster loses power mid-run, reboots, and must recover every
acknowledged write from disk.  Wall-clock timeouts throughout.
"""

from repro.durability.disk import DiskFaultPlan, FaultDisk, FileDisk
from repro.netreal import RealNetwork
from repro.replication import KvClient, KvReplica
from repro.replication.consistency import check_kv_consistency

TIMEOUT_US = 30_000_000.0
GRACE_US = 500_000.0

#: The blackout lands after this many definitive client outcomes — a
#: point in the run, not on the clock, so it is mid-run at any speed.
BLACKOUT_AFTER_OUTCOMES = 4
REBOOT_AFTER_US = 500_000.0


def _replica(index):
    return KvReplica(index, tuple(i for i in range(3) if i != index),
                     claim_primary=index == 0)


def test_cluster_power_loss_recovers_from_filedisk(tmp_path):
    net = RealNetwork(seed=21)
    try:
        replicas = []
        for index in range(3):
            node = net.add_node(
                program=_replica(index),
                name=f"replica{index}",
                boot_at_us=20_000.0 * index,
            )
            node.disk = FaultDisk(
                FileDisk(str(tmp_path / f"replica{index}")),
                DiskFaultPlan(seed=100 + index),
            )
            replicas.append(node)
        client = KvClient(total=8)
        net.add_node(program=client, name="client", boot_at_us=250_000.0)

        def cut():
            for node in replicas:
                if node.kernel.offline_until is None:
                    node.crash()

        def reboot():
            for index, node in enumerate(replicas):
                boot_at = net.sim.now
                if node.kernel.offline_until is not None:
                    boot_at = node.kernel.offline_until
                node.install_program(_replica(index), boot_at_us=boot_at)

        def definitive():
            return sum(
                status != "unavail" for status in client.outcomes.values()
            )

        reached = net.run_until(
            lambda: definitive() >= BLACKOUT_AFTER_OUTCOMES,
            timeout=TIMEOUT_US,
        )
        outcomes_at_cut = len(client.outcomes)
        cut()
        net.sim.at(net.now + REBOOT_AFTER_US, reboot)

        finished = net.run_until(
            lambda: len(client.outcomes) >= client.total,
            timeout=TIMEOUT_US,
        )
        net.run(until=net.now + GRACE_US)
        records = list(net.sim.trace.records)
    finally:
        net.close()

    assert reached, "no definitive outcomes before the blackout"
    # The power really went out mid-run, with client ops still to come.
    assert outcomes_at_cut < client.total
    assert sum(r.category == "kernel.crash" for r in records) == len(replicas)
    assert finished, "client did not finish within the wall-clock cap"
    assert check_kv_consistency(records) == []
    # The reboot really went through disk recovery, not amnesia.
    recovers = [
        r for r in records
        if r.category == "kv.recover" and r.fields.get("source") != "amnesia"
    ]
    assert recovers
    assert any(int(r.fields.get("entries", 0)) > 0 for r in recovers)
    # And the WAL exists as honest-to-goodness files.
    assert any((tmp_path / "replica0").iterdir())
