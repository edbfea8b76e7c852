"""Unit tests for packets and retransmission policy."""

import random

import pytest

from repro.transport.packet import NackCode, Packet, PacketType
from repro.transport.retransmit import RetransmitPolicy


def test_packet_data_bytes():
    assert Packet(PacketType.REQUEST).data_bytes == 0
    assert Packet(PacketType.REQUEST, data=b"abcd").data_bytes == 4


def test_data_bytes_follows_data_through_retransmission_copies():
    # data_bytes is stored beside data, not derived on every read.
    packet = Packet(PacketType.REQUEST, data=b"abcd")
    with_data = packet.copy_for_retransmit(include_data=True)
    assert (with_data.data, with_data.data_bytes) == (b"abcd", 4)
    stripped = packet.copy_for_retransmit(include_data=False)
    assert (stripped.data, stripped.data_bytes) == (None, 0)
    assert stripped.wire_payload_bytes() == 0
    assert (packet.data, packet.data_bytes) == (b"abcd", 4)
    assert stripped == with_data.copy_for_retransmit(include_data=False)


def test_packet_ids_unique():
    a, b = Packet(PacketType.ACK), Packet(PacketType.ACK)
    assert a.packet_id != b.packet_id


def test_describe_mentions_piggybacks():
    p = Packet(PacketType.ACCEPT, data=b"xy", ack=1, pull_data=True)
    desc = p.describe()
    assert "accept" in desc
    assert "+2B" in desc
    assert "+ack1" in desc
    assert "+pull" in desc


def test_describe_mentions_nack_code():
    p = Packet(PacketType.NACK, nack_code=NackCode.BUSY)
    assert "busy" in p.describe()


def test_wire_payload_only_counts_data():
    p = Packet(PacketType.ACCEPT, data=b"12345", arg=7, tid=3)
    assert p.wire_payload_bytes() == 5


# -- retransmission policy ----------------------------------------------------


def test_ack_retry_delay_has_jitter_within_bounds():
    policy = RetransmitPolicy(ack_timeout_us=1_000.0, ack_jitter_us=100.0)
    rng = random.Random(1)
    delays = [policy.ack_retry_delay(1, rng) for _ in range(50)]
    assert all(1_000.0 <= d <= 1_100.0 for d in delays)
    assert len(set(delays)) > 1


def test_busy_retry_decays_rate():
    policy = RetransmitPolicy(
        busy_retry_base_us=100.0, busy_retry_growth=2.0, busy_jitter_us=0.0
    )
    rng = random.Random(1)
    d1 = policy.busy_retry_delay(1, rng)
    d2 = policy.busy_retry_delay(2, rng)
    d3 = policy.busy_retry_delay(3, rng)
    assert d1 < d2 < d3
    assert d2 == pytest.approx(2 * d1)


def test_busy_retry_capped():
    policy = RetransmitPolicy(
        busy_retry_base_us=100.0,
        busy_retry_growth=10.0,
        busy_retry_max_us=500.0,
        busy_jitter_us=0.0,
    )
    rng = random.Random(1)
    assert policy.busy_retry_delay(10, rng) == 500.0


def test_exhaustion_bound():
    policy = RetransmitPolicy(max_ack_attempts=4)
    assert not policy.exhausted(3)
    assert policy.exhausted(4)


def test_attempts_are_one_based():
    policy = RetransmitPolicy()
    rng = random.Random(0)
    with pytest.raises(ValueError):
        policy.ack_retry_delay(0, rng)
    with pytest.raises(ValueError):
        policy.busy_retry_delay(0, rng)
