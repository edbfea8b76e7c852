"""Unit tests for the Connection state machine, using a stub kernel."""

from types import SimpleNamespace

import pytest

from repro.core.config import KernelConfig
from repro.core.connection import Connection, OutboundMessage
from repro.sim import Simulator
from repro.transport.packet import NackCode, Packet, PacketType


class StubKernel:
    """Just enough kernel for a Connection: records transmissions."""

    def __init__(self, sim, config=None):
        self.sim = sim
        self.config = config or KernelConfig()
        self.mid = 0
        self.sent = []

    def transmit_packet(self, dst, packet, copy_bytes=0, sequenced=False):
        self.sent.append((dst, packet, sequenced))


def build(config=None):
    sim = Simulator(seed=3)
    kernel = StubKernel(sim, config)
    conn = Connection(kernel, peer_mid=9)
    return sim, kernel, conn


def msg(data=None, kind="request", **kwargs):
    packet = Packet(PacketType.REQUEST, tid=1, data=data)
    return OutboundMessage(packet, kind, **kwargs)


def test_stop_and_wait_one_outstanding():
    sim, kernel, conn = build()
    conn.enqueue(msg())
    conn.enqueue(msg())
    sim.run(until=1.0)
    assert len(kernel.sent) == 1
    conn.handle_ack(kernel.sent[0][1].seq)
    sim.run(until=2.0)
    assert len(kernel.sent) == 2
    # Alternating bit flipped between the two.
    assert kernel.sent[0][1].seq != kernel.sent[1][1].seq


def test_ack_for_wrong_seq_ignored():
    sim, kernel, conn = build()
    acked = []
    conn.enqueue(msg(on_acked=lambda: acked.append(True)))
    sim.run(until=1.0)
    seq = kernel.sent[0][1].seq
    conn.handle_ack(1 - seq)
    assert acked == []
    conn.handle_ack(seq)
    assert acked == [True]


def test_retransmission_until_ack_then_stop():
    sim, kernel, conn = build()
    conn.enqueue(msg())
    sim.run(until=200_000.0)
    assert len(kernel.sent) >= 2  # original + at least one retry
    count = len(kernel.sent)
    conn.handle_ack(kernel.sent[0][1].seq)
    sim.run(until=400_000.0)
    assert len(kernel.sent) == count  # no further retries


def test_data_stripped_from_retransmissions():
    sim, kernel, conn = build()
    conn.enqueue(msg(data=b"payload", data_once=True))
    sim.run(until=200_000.0)
    first = kernel.sent[0][1]
    retry = kernel.sent[1][1]
    assert first.data == b"payload"
    assert retry.data is None


def test_exhaustion_declares_peer_dead_and_fails_queue():
    sim, kernel, conn = build()
    dead = []
    conn.enqueue(msg(on_dead=lambda: dead.append("a")))
    conn.enqueue(msg(on_dead=lambda: dead.append("b")))
    sim.run(until=10_000_000.0)
    assert conn.declared_dead
    assert dead == ["a", "b"]
    attempts = kernel.config.retransmit.max_ack_attempts
    assert len(kernel.sent) == attempts  # only the head was ever sent


def test_busy_nack_triggers_slow_retry():
    sim, kernel, conn = build()
    conn.enqueue(msg(busy_retryable=True))
    sim.run(until=1.0)
    seq = kernel.sent[0][1].seq
    conn.handle_busy_nack(seq)
    sim.run(until=5_000.0)
    assert len(kernel.sent) == 2
    # Busy retries keep the same sequence number.
    assert kernel.sent[1][1].seq == seq


def test_busy_nack_on_non_request_ignored():
    sim, kernel, conn = build()
    conn.enqueue(msg(kind="accept", busy_retryable=False))
    sim.run(until=1.0)
    conn.handle_busy_nack(kernel.sent[0][1].seq)
    sim.run(until=3_000.0)
    assert len(kernel.sent) == 1  # no slow-retry path


def test_void_messages_skipped_at_pump():
    sim, kernel, conn = build()
    conn.enqueue(msg(void_check=lambda: True))
    live = msg()
    conn.enqueue(live)
    sim.run(until=1.0)
    assert len(kernel.sent) == 1
    assert kernel.sent[0][1] is live.packet or kernel.sent[0][1].tid == 1


def test_on_transmit_fires_once_at_first_send():
    sim, kernel, conn = build()
    fires = []
    conn.enqueue(msg(on_transmit=lambda: fires.append(sim.now)))
    sim.run(until=200_000.0)
    assert len(fires) == 1


def test_priority_swap_displaces_busy_parked_message():
    sim, kernel, conn = build()
    parked = msg(busy_retryable=True)
    conn.enqueue(parked)
    sim.run(until=1.0)
    conn.handle_busy_nack(kernel.sent[0][1].seq)
    # While parked, a priority DATA message takes over the channel.
    data = OutboundMessage(Packet(PacketType.DATA, tid=2, data=b"x"), "data")
    conn.enqueue_priority(data)
    sim.run(until=2.0)
    assert conn.outstanding is data
    assert conn.outbox[0] is parked
    # Ack the data; the parked request is re-pumped with a fresh seq.
    conn.handle_ack(data.packet.seq)
    sim.run(until=10_000.0)
    assert conn.outstanding is parked


def test_owed_ack_piggybacks_on_next_send():
    sim, kernel, conn = build()
    conn.note_owed_ack(0)
    conn.enqueue(msg())
    sim.run(until=1.0)
    assert kernel.sent[0][1].ack == 0
    # The deferred pure-ack timer was cancelled: no ACK packet follows.
    sim.run(until=50_000.0)
    acks = [p for _, p, _ in kernel.sent if p.ptype is PacketType.ACK]
    assert acks == []


def test_owed_ack_times_out_to_pure_ack():
    sim, kernel, conn = build()
    conn.note_owed_ack(1, tx_us=42.0)
    sim.run(until=10_000.0)
    acks = [p for _, p, _ in kernel.sent if p.ptype is PacketType.ACK]
    assert len(acks) == 1
    # It echoes the acknowledged copy's stamp (spurious-retransmit
    # detection) and is owed no more.
    assert (acks[0].ack, acks[0].echo_tx_us) == (1, 42.0)
    assert conn.take_piggyback_ack() is None


def test_suspend_owed_ack_holds_the_timer():
    sim, kernel, conn = build()
    conn.note_owed_ack(1)
    conn.suspend_owed_ack()
    sim.run(until=50_000.0)
    assert kernel.sent == []
    # The ack is still owed and can be taken for piggyback.
    assert conn.take_piggyback_ack() == (1, None)


def test_forget_owed_ack():
    sim, kernel, conn = build()
    conn.note_owed_ack(1)
    conn.forget_owed_ack(1)
    sim.run(until=50_000.0)
    assert kernel.sent == []
    assert conn.take_piggyback_ack() is None


def test_reset_clears_everything():
    sim, kernel, conn = build()
    conn.enqueue(msg())
    conn.enqueue(msg())
    conn.note_owed_ack(0)
    sim.run(until=1.0)
    conn.reset()
    assert conn.outstanding is None
    assert not conn.outbox
    assert conn.owed_ack is None
    assert conn.send_seq == 0
    assert not conn.heard_from_peer
