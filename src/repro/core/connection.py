"""Per-peer connection machinery (§5.2.2-§5.2.3).

Each kernel keeps one :class:`Connection` per remote machine it talks to.
A connection bundles:

* the **send direction**: an alternating-bit stop-and-wait channel — at
  most one outstanding sequenced message, a FIFO outbox behind it,
  bounded retransmission with random backoff, and the *slower* unbounded
  retry regime for REQUESTs rejected by a BUSY handler;
* the **receive direction**: a Delta-t record that decides whether an
  incoming sequence number is new or a duplicate;
* **acknowledgement deferral**: an ACK owed to the peer is briefly
  withheld so it can piggyback on the next outgoing sequenced message
  (typically the ACCEPT answering a REQUEST, or the next REQUEST
  answering an ACCEPT); a pure ACK goes out only if the deferral timer
  expires first.

The connection is transport policy only; what the messages *mean* is the
kernel's business, expressed through the callbacks on each
:class:`OutboundMessage`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Optional, Tuple

from repro.transport.deltat import DeltaTRecord
from repro.transport.packet import NackCode, Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import SodaKernel


@dataclass
class OutboundMessage:
    """A sequenced message queued for reliable delivery."""

    packet: Packet
    kind: str  # "request" | "accept" | "data" | "cancel"
    #: REQUEST data rides only on the first transmission (§5.2.3).
    data_once: bool = False
    #: BUSY NACKs trigger the unbounded slow-retry regime (requests only).
    busy_retryable: bool = False
    on_acked: Optional[Callable[[], None]] = None
    #: Called when the peer is declared dead (retransmissions exhausted).
    on_dead: Optional[Callable[[], None]] = None
    #: Called at the first transmission (kernel "noted" the command).
    on_transmit: Optional[Callable[[], None]] = None
    #: If provided and true at pump time, the message is silently dropped
    #: (a REQUEST cancelled before it was ever transmitted).
    void_check: Optional[Callable[[], bool]] = None
    attempts: int = 0
    busy_attempts: int = 0
    #: Simulated time of the most recent transmission (RTT accounting).
    last_tx_us: float = 0.0
    #: Set once the first transmission (with data, if any) happened.
    transmitted_with_data: bool = field(default=False)
    #: Head-of-line priority: may displace a busy-parked REQUEST (the
    #: DATA reply to an ACCEPT's pull must not deadlock behind new
    #: REQUESTs to the same, currently-blocked, server).
    priority: bool = False


class Connection:
    """State for one kernel's conversation with one peer."""

    def __init__(self, kernel: "SodaKernel", peer_mid: int) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.peer_mid = peer_mid
        self.send_seq = 0
        self.outstanding: Optional[OutboundMessage] = None
        self.outbox: Deque[OutboundMessage] = deque()
        self.recv_record = DeltaTRecord(kernel.config.deltat)
        #: Per-connection estimator state (None under the static policy).
        self.estimator = kernel.config.retransmit.make_estimator()
        # Jitter streams, bound once: a stream is its name and the master
        # seed, so this draws what a lookup at every timer did.
        self._rexmit_rng = self.sim.rng.stream(f"rexmit.{kernel.mid}")
        self._busy_rng = self.sim.rng.stream(f"busy.{kernel.mid}")
        self.owed_ack: Optional[int] = None
        #: Transmission timestamp of the message the owed ack answers,
        #: echoed back so the sender can spot spurious retransmissions.
        self.owed_ack_tx_us: Optional[float] = None
        self._ack_timer = None
        self._retransmit_timer = None
        self._busy_timer = None
        #: Have we ever heard anything from this peer?  Distinguishes
        #: "server crashed" from "no such machine" on retry exhaustion.
        self.heard_from_peer = False
        self.declared_dead = False
        #: After declaring the peer dead, the next sequenced message
        #: opens a *new* connection (Delta-t's connection_open header
        #: bit cleared): the receiver must not judge its alternating bit
        #: against the dead conversation's record.
        self.resync_next = False
        #: Receive side of the same mechanism: the packet identity whose
        #: cleared open-bit we already honored.  Retransmissions keep
        #: their packet_id, so a redelivered first-message copy cannot
        #: reset the record a second time (at-most-once).
        self._resync_pid: Optional[int] = None

    # ------------------------------------------------------------------
    # send direction
    # ------------------------------------------------------------------

    def enqueue(self, message: OutboundMessage) -> None:
        """Queue a sequenced message; transmits when the channel is free."""
        self.outbox.append(message)
        self._pump()

    def enqueue_priority(self, message: OutboundMessage) -> None:
        """Queue at the head of the line, displacing a busy-parked
        message if necessary (see OutboundMessage.priority)."""
        message.priority = True
        self.outbox.appendleft(message)
        if self.outstanding is None:
            self._pump()
        elif self._busy_timer is not None:
            # The outstanding message is parked awaiting a BUSY retry;
            # its sequence number was never consumed by the peer, so the
            # priority message may take over the channel.
            self._swap_in_priority()

    def _swap_in_priority(self) -> None:
        parked = self.outstanding
        assert parked is not None
        self._cancel_timer("_busy_timer")
        self._cancel_timer("_retransmit_timer")
        # The invariant checker must know the parked message gave its
        # sequence bit away: its next transmission is a fresh send, not
        # a retransmission, and the taker legitimately reuses the bit.
        self.sim.trace.record(
            self.sim.now, "conn.seq_swap",
            self.kernel.mid, self.peer_mid, parked.packet.packet_id,
            self.outbox[0].packet.packet_id, self.send_seq,
        )
        parked.packet.seq = None
        parked.busy_attempts = 0
        message = self.outbox.popleft()
        self.outbox.appendleft(parked)
        self._take_channel(message)
        self._transmit(message, first=True)

    def _pump(self) -> None:
        while self.outstanding is None and self.outbox:
            message = self.outbox.popleft()
            if message.void_check is not None and message.void_check():
                continue
            self._take_channel(message)
            # Defer the actual transmission one event: when the pump runs
            # from within inbound-packet processing (a piggybacked ack
            # freed the channel), the rest of that packet — whose own
            # sequence number we will owe an ack for — must be processed
            # first so the ack can piggyback on this transmission.
            self.sim.schedule(0.0, self._transmit_fresh, message)

    def _take_channel(self, message: OutboundMessage) -> None:
        """``message`` becomes the outstanding one, on the current
        sequence bit; the first message after a peer death clears the
        open bit.  The kernel is told the command is noted."""
        self.outstanding = message
        message.packet.seq = self.send_seq
        if self.resync_next:
            message.packet.connection_open = False
            self.resync_next = False
        if message.on_transmit is not None:
            message.on_transmit()

    def _transmit_fresh(self, message: OutboundMessage) -> None:
        if self.outstanding is not message:
            return
        self._transmit(message, first=True)

    def _transmit(self, message: OutboundMessage, first: bool) -> None:
        packet = message.packet
        include_data = packet.data is not None and (
            not message.data_once or not message.transmitted_with_data
        )
        # Retransmissions always go out as a fresh copy: an earlier copy
        # may still sit un-processed in the receiver's input queue, and
        # mutating a shared object would rewrite its tx_us/ack fields in
        # flight.  The first transmission has no earlier copy.
        if first and include_data:
            send_packet = packet
        else:
            send_packet = packet.copy_for_retransmit(include_data)
        if include_data and packet.data is not None:
            message.transmitted_with_data = True
        message.attempts += 1
        message.last_tx_us = self.sim.now
        send_packet.tx_us = self.sim.now
        # Piggyback any owed acknowledgement.
        self.attach_piggyback(send_packet)
        copy_bytes = send_packet.data_bytes if first and include_data else 0
        self.kernel.transmit_packet(
            self.peer_mid, send_packet, copy_bytes=copy_bytes, sequenced=True
        )
        self._arm_retransmit(message)

    def _arm_retransmit(self, message: OutboundMessage) -> None:
        self._cancel_timer("_retransmit_timer")
        policy = self.kernel.config.retransmit
        delay = policy.ack_retry_delay(
            message.attempts,
            self._rexmit_rng,
            data_bytes=message.packet.data_bytes,
            estimator=self.estimator,
        )
        self._retransmit_timer = self.sim.schedule(
            delay, self._retransmit_fire, message
        )

    def _retransmit_fire(self, message: OutboundMessage) -> None:
        self._retransmit_timer = None
        if self.outstanding is not message:
            return
        policy = self.kernel.config.retransmit
        if policy.exhausted(message.attempts):
            self._declare_dead(message)
            return
        self.sim.trace.record(
            self.sim.now,
            "conn.retransmit",
            self.kernel.mid,
            self.peer_mid,
            message.kind,
            message.attempts,
            # Realized recovery wait: how long this copy went unacked
            # before the RTO fired.  The sim-vs-real bench compares the
            # mean across policies (static 60ms+backoff vs adaptive's
            # estimated RTO), which is the structural claim a wall
            # clock can't blur.
            self.sim.now - message.last_tx_us,
        )
        if self.estimator is not None:
            self.estimator.back_off(
                getattr(policy, "backoff_growth", 2.0)
            )
        self._transmit(message, first=False)

    def _declare_dead(self, message: OutboundMessage) -> None:
        self.declared_dead = True
        # The conversation is over; whatever we send next must not be
        # judged against its alternating-bit state at the receiver
        # (which, under a long Delta-t R, can outlive the death).
        self.resync_next = True
        self.sim.trace.record(
            self.sim.now, "conn.peer_dead",
            self.kernel.mid, self.peer_mid, message.kind,
        )
        self.outstanding = None
        self._cancel_timer("_retransmit_timer")
        self._cancel_timer("_busy_timer")
        if message.on_dead is not None:
            message.on_dead()
        # Everything queued behind the dead message dies with the peer.
        while self.outbox:
            queued = self.outbox.popleft()
            if queued.on_dead is not None:
                queued.on_dead()

    # -- acknowledgements -------------------------------------------------

    def handle_ack(
        self,
        ack_seq: int,
        echo_tx_us: Optional[float] = None,
        implicit: bool = False,
    ) -> None:
        """Process an acknowledgement (pure or piggybacked).

        ``echo_tx_us`` is the transmission timestamp the receiver echoed
        back (the copy this ack answers); ``implicit`` marks a
        synthesized ack (an ACCEPT proving delivery), whose timing says
        nothing about the wire and must not feed the estimator.
        """
        message = self.outstanding
        if message is None or message.packet.seq != ack_seq:
            return  # stale or duplicate ack
        self.outstanding = None
        self._cancel_timer("_retransmit_timer")
        self._cancel_timer("_busy_timer")
        self.send_seq = 1 - self.send_seq
        rtt_us = self.sim.now - message.last_tx_us
        # Eifel-style spurious-retransmit detection: the echoed
        # timestamp names the copy the receiver acknowledged; an echo
        # older than our last transmission means that retransmission
        # answered nothing — the original (or its ack) was merely slow.
        if (
            message.attempts > 1
            and echo_tx_us is not None
            and echo_tx_us < message.last_tx_us
        ):
            self.sim.trace.record(
                self.sim.now, "conn.spurious_retransmit",
                self.kernel.mid, self.peer_mid, message.kind, message.attempts,
            )
        # Karn's rule: only a message that was never retransmitted
        # yields an unambiguous RTT sample.
        if not implicit and message.attempts == 1 and self.estimator is not None:
            self.estimator.sample(rtt_us)
        # The obs layer's per-message RTT sample: time from the last
        # (re)transmission to the acknowledgement that released the
        # channel, including kernel-CPU queueing at both ends.
        self.sim.trace.record(
            self.sim.now, "conn.acked",
            self.kernel.mid, self.peer_mid, message.kind, message.attempts, rtt_us,
            self.kernel.config.retransmit.kind,
        )
        if message.on_acked is not None:
            message.on_acked()
        self._pump()

    def handle_busy_nack(
        self, nacked_seq: int, retry_hint_us: Optional[float] = None
    ) -> None:
        """The peer's handler was BUSY; retry at the decaying slow rate.

        ``retry_hint_us`` is the server's hint: never retry sooner than
        this (an overloaded kernel widens it to shed load).
        """
        message = self.outstanding
        if message is None or message.packet.seq != nacked_seq:
            return
        if not message.busy_retryable:
            # A non-request met BUSY -- should not happen; treat as a
            # normal retransmission trigger.
            return
        # The peer answered: it is alive.  BUSY retries are unbounded
        # (§5.2.2: a client looping in its handler is not crashed), so
        # they must not count toward the dead-peer exhaustion limit.
        message.attempts = 0
        message.busy_attempts += 1
        self._cancel_timer("_retransmit_timer")
        self._cancel_timer("_busy_timer")
        policy = self.kernel.config.retransmit
        delay = policy.busy_retry_delay(message.busy_attempts, self._busy_rng)
        if retry_hint_us is not None:
            delay = max(delay, retry_hint_us)
        self._busy_timer = self.sim.schedule(delay, self._busy_fire, message)
        if self.outbox and self.outbox[0].priority:
            # A priority message (ACCEPT data pull) is waiting behind this
            # parked REQUEST; let it take the channel now.
            self._swap_in_priority()

    def _busy_fire(self, message: OutboundMessage) -> None:
        self._busy_timer = None
        if self.outstanding is not message:
            return
        self.sim.trace.record(
            self.sim.now, "conn.busy_retry",
            self.kernel.mid, self.peer_mid, message.busy_attempts,
        )
        self._transmit(message, first=False)

    # ------------------------------------------------------------------
    # receive direction
    # ------------------------------------------------------------------

    def note_heard(self) -> None:
        self.heard_from_peer = True
        self.declared_dead = False
        self.recv_record.heard(self.sim.now)

    def _resync_applies(self, packet: Packet) -> bool:
        return (
            not packet.connection_open
            and packet.packet_id != self._resync_pid
        )

    def classify_sequenced(self, packet: Packet) -> str:
        """'new' or 'duplicate' under the Delta-t record."""
        assert packet.seq is not None
        if self._resync_applies(packet):
            # First message of a new connection (sender declared us, or
            # a conversation with us, dead and gave up on the old one):
            # the old record's alternating-bit state no longer applies.
            self._resync_pid = packet.packet_id
            self.recv_record.destroy()
            self.sim.trace.record(
                self.sim.now, "conn.resync",
                self.kernel.mid, self.peer_mid, packet.packet_id, packet.seq,
            )
        return self.recv_record.classify(packet.seq, self.sim.now)

    def peek_sequenced(self, packet: Packet) -> str:
        """Verdict without consuming the sequence number."""
        assert packet.seq is not None
        if self._resync_applies(packet):
            return "new"
        return self.recv_record.peek(packet.seq, self.sim.now)

    def rollback_sequenced(self, packet: Packet) -> None:
        """Un-consume a sequence number (pipelined hold that expired)."""
        assert packet.seq is not None
        self.recv_record.expected_seq = packet.seq

    def note_owed_ack(self, seq: int, tx_us: Optional[float] = None) -> None:
        """We owe the peer an ack for ``seq``; defer hoping to piggyback.

        ``tx_us`` is the transmission timestamp the acknowledged copy
        carried; it is echoed back on the ack (see ``Packet.echo_tx_us``).
        """
        self.owed_ack = seq
        self.owed_ack_tx_us = tx_us
        self._cancel_timer("_ack_timer")
        self._ack_timer = self.sim.schedule(
            self.kernel.config.timing.ack_defer_us, self._ack_timer_fire
        )

    def suspend_owed_ack(self) -> None:
        """Stop the pure-ack timer without forgetting the owed ack.

        Used by the pipelined kernel while a REQUEST is held in the input
        buffer: the ack must not go out until the held REQUEST is either
        delivered (ack piggybacks on the ACCEPT) or rolled back.
        """
        self._cancel_timer("_ack_timer")

    def take_piggyback_ack(self) -> Optional[Tuple[int, Optional[float]]]:
        """Claim the owed ack (and its echo timestamp), if any."""
        if self.owed_ack is None:
            return None
        ack, self.owed_ack = self.owed_ack, None
        tx_us, self.owed_ack_tx_us = self.owed_ack_tx_us, None
        self._cancel_timer("_ack_timer")
        return ack, tx_us

    def attach_piggyback(self, packet: Packet) -> None:
        """Attach the owed ack (if any) to an outgoing packet."""
        owed = self.take_piggyback_ack()
        if owed is not None:
            packet.ack, packet.echo_tx_us = owed

    def forget_owed_ack(self, seq: int) -> None:
        if self.owed_ack == seq:
            self.owed_ack = None
            self.owed_ack_tx_us = None
            self._cancel_timer("_ack_timer")

    def _ack_timer_fire(self) -> None:
        self._ack_timer = None
        owed = self.take_piggyback_ack()
        if owed is not None:
            self.send_immediate_ack(*owed)

    def send_immediate_ack(
        self, seq: int, echo_tx_us: Optional[float] = None
    ) -> None:
        """Acknowledge right away (no deferral): a duplicate, or an owed
        ack whose deferral ran out."""
        self.kernel.transmit_packet(
            self.peer_mid,
            Packet(PacketType.ACK, ack=seq, echo_tx_us=echo_tx_us),
            sequenced=False,
        )

    def send_unsequenced(self, packet: Packet) -> None:
        """Send a one-shot reply (a NACK, PROBE_REPLY or CANCEL_REPLY)
        carrying the owed ack, if any."""
        self.attach_piggyback(packet)
        self.kernel.transmit_packet(self.peer_mid, packet, sequenced=False)

    def send_nack(
        self,
        code: NackCode,
        *,
        tid: Optional[int] = None,
        nacked_seq: Optional[int] = None,
        retry_hint_us: Optional[float] = None,
    ) -> None:
        self.send_unsequenced(
            Packet(
                PacketType.NACK,
                nack_code=code,
                tid=tid,
                nacked_seq=nacked_seq,
                retry_hint_us=retry_hint_us,
            )
        )

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop all connection state (node crash)."""
        for name in ("_ack_timer", "_retransmit_timer", "_busy_timer"):
            self._cancel_timer(name)
        self.outstanding = None
        self.outbox.clear()
        self.owed_ack = None
        self.owed_ack_tx_us = None
        self.estimator = self.kernel.config.retransmit.make_estimator()
        self.recv_record.destroy()
        self.send_seq = 0
        self.declared_dead = False
        self.heard_from_peer = False
        self.resync_next = False
        self._resync_pid = None

    def _cancel_timer(self, name: str) -> None:
        timer = getattr(self, name)
        if timer is not None:
            timer.cancel()
            setattr(self, name, None)
