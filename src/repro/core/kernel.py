"""The SODA kernel (Chapter 3, implemented per Chapter 5).

One :class:`SodaKernel` is the communications-adaptor processor of one
node.  It exposes the ten client primitives, runs the reliable transport
(alternating-bit + Delta-t, with the piggybacking strategies of §5.2.3),
interprets the reserved patterns (BOOT/LOAD/KILL/SYSTEM), answers
DISCOVER broadcasts, probes delivered-but-unaccepted requests, and
enforces the crash semantics of §3.6.

Simulated kernel CPU time is serialized through ``_busy_until`` and every
microsecond is charged to a :class:`~repro.sim.tracing.CostLedger`
category, which is how the paper's overhead-breakdown table is
regenerated.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.core.boot import (
    DEFAULT_KILL_PATTERN,
    KERNEL_RMR_PATTERN,
    SYSTEM_ADD_BOOT,
    SYSTEM_DELETE_BOOT,
    SYSTEM_PATTERN,
    SYSTEM_REPLACE_KILL,
    LoadState,
    ProgramImage,
    boot_pattern_for,
    mids_to_bytes,
    pattern_from_bytes,
    pattern_to_bytes,
)
from repro.core.buffers import Buffer, OverloadController, buffer_or_nil
from repro.core.client import ClientProcessor, HandlerEvent
from repro.core.config import KernelConfig
from repro.core.connection import Connection, OutboundMessage
from repro.core.errors import (
    AcceptStatus,
    CancelStatus,
    HandlerReason,
    RequestStatus,
    SodaError,
    TooManyRequestsError,
)
from repro.core.patterns import (
    BROADCAST,
    Pattern,
    PatternTable,
    UniqueIdGenerator,
    is_reserved,
)
from repro.core.signatures import RequesterSignature, ServerSignature
from repro.net.frame import BROADCAST_MID, Frame
from repro.net.nic import NetworkInterface
from repro.sim.tracing import CostLedger
from repro.transport.packet import NackCode, Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import SodaNode
    from repro.sim.engine import Simulator
    from repro.sim.process import SimFuture


class RequestState(enum.Enum):
    QUEUED = "queued"        # accepted by the kernel, not yet transmitted
    INFLIGHT = "inflight"    # transmitted, not yet acknowledged
    DELIVERED = "delivered"  # at the server handler, being probed
    COMPLETED = "completed"  # handler told (success or failure)
    CANCELLED = "cancelled"


class DeliveredState(enum.Enum):
    DELIVERED = "delivered"  # available for ACCEPT
    ACCEPTED = "accepted"    # ACCEPT issued; exchange under way
    DONE = "done"            # exchange finished
    CANCELLED = "cancelled"  # withdrawn by the requester


@dataclass
class RequestRecord:
    """Requester-side bookkeeping for one REQUEST."""

    tid: int
    server_sig: ServerSignature
    arg: int
    put_data: bytes
    get_buffer: Buffer
    state: RequestState = RequestState.QUEUED
    outbound: Optional[OutboundMessage] = None
    is_discover: bool = False
    completion_status: Optional[RequestStatus] = None
    probe_timer: object = None
    probe_deadline: object = None
    probe_failures: int = 0
    pending_cancel: Optional["SimFuture"] = None

    @property
    def open(self) -> bool:
        return self.state not in (RequestState.COMPLETED, RequestState.CANCELLED)


@dataclass
class DeliveredRequest:
    """Server-side record of a REQUEST that reached the handler."""

    sig: RequesterSignature
    pattern: Pattern
    arg: int
    put_size: int
    get_size: int
    put_data: Optional[bytes]
    state: DeliveredState = DeliveredState.DELIVERED
    #: The ACCEPT that would have informed the requester exhausted its
    #: retransmissions (peer declared dead).  The outcome can no longer
    #: be delivered, so probe replies must stop vouching for this
    #: transaction — else a requester behind a healed partition probes
    #: an answer that will never come, forever.
    reply_dead: bool = False
    #: The requester acknowledged our ACCEPT: it holds the outcome, will
    #: never probe this transaction again, and the record may retire.
    accept_acked: bool = False

    @property
    def settled(self) -> bool:
        """Nothing can still ask about this delivery (see
        ``SodaKernel._retire_if_settled``)."""
        if self.state is DeliveredState.CANCELLED:
            return True
        return self.state is DeliveredState.DONE and (
            self.accept_acked or self.reply_dead
        )


@dataclass
class PendingAccept:
    """Server-side state of a blocking ACCEPT in progress."""

    sig: RequesterSignature
    future: "SimFuture"
    get_buffer: Buffer
    #: "none": return after the ACCEPT is noted and sent.
    #: "ack": block until the data-carrying ACCEPT is acknowledged.
    #: "data": block until the pulled put-direction data arrives.
    wait_for: str = "none"
    resolved: bool = False

    def resolve(self, status: AcceptStatus) -> None:
        if not self.resolved:
            self.resolved = True
            self.future.resolve(status)


@dataclass
class HeldRequest:
    """The pipelined kernel's occupied input buffer (§5.2.3)."""

    src: int
    packet: Packet
    timer: object = None


@dataclass
class DiscoverState:
    record: RequestRecord
    mids: Set[int] = field(default_factory=set)
    timer: object = None


class SodaKernel:
    """One node's SODA processor."""

    def __init__(
        self,
        sim: "Simulator",
        nic: NetworkInterface,
        config: Optional[KernelConfig] = None,
        machine_type: str = "generic",
        ledger: Optional[CostLedger] = None,
        node: Optional["SodaNode"] = None,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.config = config or KernelConfig()
        self.machine_type = machine_type
        self.ledger = ledger or CostLedger()
        self.node = node
        self.mid = nic.mid
        nic.on_frame = self.on_frame

        self.uidgen = UniqueIdGenerator(serial=self.mid & 0xFF)
        self.patterns = PatternTable(direct_index=self.config.direct_index_patterns)
        self.connections: Dict[int, Connection] = {}

        # requester side.  ``requests`` holds *open* REQUESTs only:
        # _close_request retires a record the moment it completes or is
        # cancelled, so len(requests) is the MAXREQUESTS count (§3.3.1)
        # and the table is bounded by it (DESIGN.md "Record lifetime").
        self.requests: Dict[int, RequestRecord] = {}
        # All a retired CANCELLED record still has to answer: a repeated
        # CANCEL of a withdrawn tid resolves SUCCESS, of a completed or
        # unknown one FAIL.  Tids only, this incarnation's only.
        self._cancelled_tids: Set[int] = set()
        self._discovers: Dict[int, DiscoverState] = {}
        self._discover_tokens = itertools.count(1)

        # server side.  ``delivered`` holds deliveries something may
        # still ask about; _retire_if_settled drops the rest.
        self.delivered: Dict[RequesterSignature, DeliveredRequest] = {}
        # Signatures the last dead incarnation left DELIVERED but never
        # ACCEPTed: their handlers provably never executed, so a PROBE
        # naming one is answered with arg=2 ("crashed before ACCEPT") and
        # the requester may safely re-issue the REQUEST (§3.6.1).
        self.crashed_unaccepted: set[RequesterSignature] = set()
        self.pending_accepts: Dict[RequesterSignature, PendingAccept] = {}
        self.completion_queue: Deque[HandlerEvent] = deque()
        self.held: Optional[HeldRequest] = None

        # handler state (the kernel owns OPEN/CLOSED/BUSY; §3.3.4)
        self.handler_open = False
        self._handler_busy = False
        self._pending_handler_open: Optional[bool] = None

        # client & boot state
        self.client: Optional[ClientProcessor] = None
        self._tid_watermark = 0
        # Incarnation counter: bumped on every client reset (DIE, KILL,
        # crash) so trace records and probe replies can name which life
        # of this node an event belongs to (repro.analysis.causal).
        self.epoch = 0
        self.kill_pattern: Pattern = DEFAULT_KILL_PATTERN
        self.boot_patterns: List[Pattern] = [boot_pattern_for(machine_type)]
        self._boot_active = True  # boot patterns advertised (no client)
        self._load: Optional[LoadState] = None

        # §6.17.2 extension: client memory served by the kernel RMR
        # handler (set via client_register_rmr_memory).
        self.rmr_memory: Optional[bytearray] = None

        # node liveness
        self.offline_until: Optional[float] = None
        self._busy_until = 0.0

        # input-side admission control (docs/TRANSPORT.md)
        self.overload = OverloadController(self.config.overload)
        self._arrival_backlog_us = 0.0

    # ==================================================================
    # small helpers
    # ==================================================================

    def _conn(self, mid: int) -> Connection:
        conn = self.connections.get(mid)
        if conn is None:
            conn = Connection(self, mid)
            self.connections[mid] = conn
        return conn

    def _set_delivered_state(
        self, delivered: DeliveredRequest, state: DeliveredState
    ) -> None:
        """Transition a delivered request, tracing the change, and retire
        it if that (or a flag set just before) settled it.

        The ``kernel.delivered_state`` records drive the post-run leak
        check (every DELIVERED request must reach DONE or CANCELLED);
        no-op transitions are not recorded.
        """
        if delivered.state is not state:
            delivered.state = state
            self.sim.trace.record(
                self.sim.now, "kernel.delivered_state",
                self.mid, delivered.sig.mid, delivered.sig.tid, state.value,
            )
        self._retire_if_settled(delivered)

    def _retire_if_settled(self, delivered: DeliveredRequest) -> None:
        """Drop a delivery nothing can ask about any more.

        CANCELLED is final at once.  DONE waits for the ACCEPT's fate: a
        DONE delivery whose ACCEPT is still in flight must keep answering
        PROBEs ``arg=1`` until the requester has acknowledged it (it then
        holds the outcome and stops probing) or is declared dead
        (``reply_dead``).  A lookup miss answers exactly as the retired
        record did — PROBE ``arg=0``, ACCEPT ``CANCELLED``, CANCEL "too
        late" — and the identity guard keeps a transport callback that
        outlived a reset (``_accept_stale``) from evicting a newer
        delivery under the same signature.
        """
        if delivered.settled and self.delivered.get(delivered.sig) is delivered:
            del self.delivered[delivered.sig]

    def _note_delivered(self, delivered: DeliveredRequest) -> None:
        self.delivered[delivered.sig] = delivered
        self.sim.trace.record(
            self.sim.now, "kernel.delivered_state",
            self.mid, delivered.sig.mid, delivered.sig.tid, delivered.state.value,
        )

    def _kernel_work(
        self, protocol_us: float, retransmit_us: float, fn=None, *args
    ) -> None:
        """Charge one packet's handling — plus the Delta-t bookkeeping
        every packet pays — and serialize it on the kernel CPU."""
        timers_us = self.config.timing.connection_timer_us
        self.ledger.charge_packet(protocol_us, timers_us, retransmit_us)
        start = max(self.sim.now, self._busy_until)
        # Summed in ledger order: BENCH_obs.json's T4 is compared byte
        # for byte and float addition does not associate.
        self._busy_until = start + ((protocol_us + timers_us) + retransmit_us)
        if fn is not None:
            self.sim.at(self._busy_until, fn, *args)

    # ==================================================================
    # wire I/O
    # ==================================================================

    def transmit_packet(
        self,
        dst: int,
        packet: Packet,
        copy_bytes: int = 0,
        sequenced: bool = False,
    ) -> None:
        """Send one packet, charging kernel and wire costs."""
        if self.offline_until is not None:
            return
        tm = self.config.timing
        self._kernel_work(
            tm.protocol_send_us + tm.copy_cost_us(copy_bytes),
            tm.retransmit_timer_us if sequenced else 0.0,
            self._do_send,
            dst,
            packet,
        )

    def _do_send(self, dst: int, packet: Packet) -> None:
        if self.offline_until is not None:
            return
        frame = self.nic.send(dst, packet, payload_bytes=packet.wire_payload_bytes())
        self.ledger.charge("transmission", frame.tx_us)
        trace = self.sim.trace
        if trace.passive:
            # Nobody reads the fields; only the category counter moves.
            trace.record(self.sim.now, "kernel.tx")
            return
        trace.record(
            self.sim.now,
            "kernel.tx",
            self.mid,
            dst,
            packet.ptype._value_,
            packet.data_bytes,
            # Fields consumed by the trace invariant checker
            # (repro.analysis.invariants): alternating bit, packet
            # identity (stable across retransmissions), piggybacked ack.
            packet.seq,
            packet.packet_id,
            packet.tid,
            packet.ack,
            # Send/receive correlation for the causal analysis engine
            # (repro.analysis.causal): every transmission is a fresh
            # frame, so the frame id pairs this tx with its rx(s).
            frame.frame_id,
            packet.epoch,
        )

    def on_frame(self, frame: Frame) -> None:
        if self.offline_until is not None:
            return
        packet: Packet = frame.payload
        tm = self.config.timing
        # Input-buffer occupancy is judged at *arrival*: the backlog
        # this frame is about to wait behind.  By processing time that
        # backlog has drained by definition, which would blind the
        # overload controller to exactly the congestion it exists for.
        backlog = max(0.0, self._busy_until - self.sim.now)
        self._kernel_work(
            tm.protocol_recv_us + tm.copy_cost_us(packet.data_bytes),
            0.0,
            self._process_packet,
            frame.src,
            packet,
            backlog,
            frame.frame_id,
        )

    # ==================================================================
    # packet dispatch
    # ==================================================================

    def _process_packet(
        self,
        src: int,
        packet: Packet,
        arrival_backlog_us: float = 0.0,
        fid: Optional[int] = None,
    ) -> None:
        if self.offline_until is not None:
            return
        self._arrival_backlog_us = arrival_backlog_us
        self._trace_rx(src, packet, fid)
        conn = self._conn(src)
        conn.note_heard()
        ptype = packet.ptype
        if ptype is PacketType.NACK and packet.nack_code is not NackCode.BUSY:
            # An error NACK both rejects the message at the application
            # level and acknowledges it at the transport level; the
            # rejection must win (a blocked ACCEPT resolves CANCELLED or
            # CRASHED, not SUCCESS-by-ack).
            self._handle_nack(src, packet, conn)
            if packet.ack is not None:
                conn.handle_ack(packet.ack, echo_tx_us=packet.echo_tx_us)
            return
        if packet.ack is not None:
            conn.handle_ack(packet.ack, echo_tx_us=packet.echo_tx_us)
        if ptype is not PacketType.ACK:
            self._DISPATCH[ptype._value_](self, src, packet, conn)

    def _trace_rx(self, src: int, packet: Packet, fid: Optional[int]) -> None:
        trace = self.sim.trace
        if trace.passive:
            # Nobody reads the fields; only the category counter moves.
            trace.record(self.sim.now, "kernel.rx")
            return
        trace.record(
            self.sim.now,
            "kernel.rx",
            self.mid,
            src,
            packet.ptype._value_,
            packet.seq,
            packet.tid,
            packet.ack,
            packet.nack_code._value_ if packet.nack_code else None,
            # Retry hint as *received* — sodalint rule SODA007 binds a
            # client only to hints that actually reached it.
            packet.retry_hint_us,
            # Frame id pairs this rx with its kernel.tx (causal edge);
            # None for traces replayed without NIC correlation.
            fid,
            packet.epoch,
        )

    def _accept_sequenced(self, conn: Connection, packet: Packet) -> bool:
        """Consume a sequenced packet; False for duplicates (re-acked)."""
        verdict = conn.classify_sequenced(packet)
        if verdict == "duplicate":
            conn.send_immediate_ack(packet.seq, echo_tx_us=packet.tx_us)
            return False
        conn.note_owed_ack(packet.seq, tx_us=packet.tx_us)
        return True

    # ------------------------------------------------------------------
    # NACKs
    # ------------------------------------------------------------------

    def _handle_nack(self, src: int, packet: Packet, conn: Connection) -> None:
        code = packet.nack_code
        if code is NackCode.BUSY:
            conn.handle_busy_nack(
                packet.nacked_seq, retry_hint_us=packet.retry_hint_us
            )
            return
        if code is NackCode.OVERLOAD:
            # The server's kernel shed the REQUEST before delivery: a
            # proof of non-execution, so recovery's retry wrapper may
            # re-issue it without the MAYBE path.  Not a crash — no
            # kernel.crash_report — the peer is alive, just saturated.
            record = self.requests.get(packet.tid)
            if record is not None:
                self._fail(
                    record, RequestStatus.OVERLOADED, "nack_overload",
                    not_executed=True,
                )
            return
        if code is NackCode.UNADVERTISED:
            record = self.requests.get(packet.tid)
            if record is not None:
                self._fail(
                    record, RequestStatus.UNADVERTISED, "nack_unadvertised",
                    not_executed=True,
                )
            return
        if code in (NackCode.CANCELLED, NackCode.CRASHED):
            # Our ACCEPT's answer: the code is the ACCEPT's status.
            self._settle(
                RequesterSignature(src, packet.tid), AcceptStatus(code.value)
            )

    # ------------------------------------------------------------------
    # REQUEST arrival (server side)
    # ------------------------------------------------------------------

    def _handle_request_packet(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        # A duplicate of an already-delivered REQUEST must be
        # re-acknowledged no matter what the handler is doing; BUSY-
        # NACKing it would convince the requester its (delivered!)
        # request never arrived and wedge the channel.
        if conn.peek_sequenced(packet) == "duplicate":
            conn.send_immediate_ack(packet.seq, echo_tx_us=packet.tx_us)
            return
        pattern = packet.pattern
        if is_reserved(pattern):
            if self._accept_sequenced(conn, packet):
                self._handle_reserved_request(src, packet, conn)
            return
        if not self.patterns.matches(pattern):
            if self._accept_sequenced(conn, packet):
                conn.send_nack(NackCode.UNADVERTISED, tid=packet.tid)
            return
        # Overload admission: the BUSY NACK protects the *handler*; the
        # overload controller protects the *kernel*.  Reserved patterns
        # (BOOT/LOAD/KILL/SYSTEM) were dispatched above and are exempt —
        # shedding the recovery path under load would be self-defeating.
        if self.overload.observe(self._input_occupancy_us()):
            if self._accept_sequenced(conn, packet):
                self.sim.trace.record(
                    self.sim.now, "kernel.shed",
                    self.mid, src, packet.tid, self.overload.last_occupancy_us,
                )
                self.overload.sheds += 1
                conn.send_nack(NackCode.OVERLOAD, tid=packet.tid)
            return
        # A client pattern: delivery depends on the handler state.
        if self._handler_eligible_for_arrival():
            if self._accept_sequenced(conn, packet):
                self._invoke_handler(self._arrival(src, packet))
            return
        # Handler BUSY or CLOSED.
        if self.config.pipelined and self.held is None:
            if not self._accept_sequenced(conn, packet):
                return
            conn.suspend_owed_ack()
            timer = self.sim.schedule(
                self.config.timing.input_buffer_hold_us, self._held_expired
            )
            self.held = HeldRequest(src, packet, timer)
            self.sim.trace.record(
                self.sim.now, "kernel.hold",
                self.mid, src, packet.tid,
            )
        else:
            # None, not False: the field is absent on a plain BUSY NACK.
            self._busy_nack(conn, packet, None)

    def _busy_nack(
        self, conn: Connection, packet: Packet, hold_expired: Optional[bool]
    ) -> None:
        hint = self.overload.retry_hint_us(
            self.config.retransmit.busy_retry_base_us
        )
        conn.send_nack(
            NackCode.BUSY,
            tid=packet.tid,
            nacked_seq=packet.seq,
            retry_hint_us=hint,
        )
        self.sim.trace.record(
            self.sim.now, "kernel.busy_nack",
            self.mid, conn.peer_mid, packet.tid, hint, hold_expired,
        )

    def _input_occupancy_us(self) -> float:
        """Input-side occupancy: the kernel-CPU backlog the packet being
        processed waited behind in the input buffer, plus queued
        interrupts, in equivalent microseconds."""
        queued = len(self.completion_queue) + (1 if self.held is not None else 0)
        return (
            self._arrival_backlog_us
            + queued * self.config.overload.queue_item_cost_us
        )

    def _held_expired(self) -> None:
        if self.held is not None:
            held = self._release_held(rollback=True)
            self._busy_nack(self._conn(held.src), held.packet, True)

    def _release_held(self, rollback: bool) -> HeldRequest:
        """Empty the input buffer.  ``rollback`` un-consumes the held
        REQUEST's sequence number and forgets its ack, so the requester's
        retry is taken as new; without it the REQUEST is being delivered
        and its ack piggybacks on whatever the handler sends back."""
        held, self.held = self.held, None
        if held.timer is not None:
            held.timer.cancel()
        if rollback:
            conn = self._conn(held.src)
            conn.rollback_sequenced(held.packet)
            conn.forget_owed_ack(held.packet.seq)
        return held

    def _arrival(self, src: int, packet: Packet) -> HandlerEvent:
        """Note a REQUEST as delivered; returns its handler event."""
        sig = RequesterSignature(src, packet.tid)
        self._note_delivered(
            DeliveredRequest(
                sig=sig,
                pattern=packet.pattern,
                arg=packet.arg,
                put_size=packet.put_size,
                get_size=packet.get_size,
                put_data=packet.data,
            )
        )
        return HandlerEvent(
            reason=HandlerReason.REQUEST_ARRIVAL,
            asker=sig,
            pattern=packet.pattern,
            arg=packet.arg,
            put_size=packet.put_size,
            get_size=packet.get_size,
        )

    # ------------------------------------------------------------------
    # handler invocation machinery
    # ------------------------------------------------------------------

    def _handler_eligible(self) -> bool:
        return (
            self.handler_open
            and not self._handler_busy
            and self.client is not None
            and self.client.can_take_interrupt
        )

    def _handler_eligible_for_arrival(self) -> bool:
        # Queued completion interrupts make the handler BUSY to arrivals
        # (§3.7.5), and a held REQUEST is already first in line.
        return (
            self._handler_eligible()
            and not self.completion_queue
            and self.held is None
        )

    def _invoke_handler(self, event: HandlerEvent) -> None:
        self._handler_busy = True
        self.ledger.charge(
            "context_switch", self.config.timing.context_switch_us
        )
        self.sim.trace.record(
            self.sim.now, "kernel.interrupt",
            self.mid, event.reason.value,
        )
        assert self.client is not None
        self.client.run_handler(event)

    def _deliver_completion(self, event: HandlerEvent) -> None:
        if self.client is None or self.client.dead:
            return
        if self._handler_eligible():
            self._invoke_handler(event)
        else:
            self.completion_queue.append(event)

    def note_boot_started(self) -> None:
        """The boot handler (Initialization) is about to run.

        Traced so handler entries/exits balance: Initialization runs as
        a handler and ends with a normal ``kernel.endhandler``, but
        never passes through :meth:`_invoke_handler`.
        """
        self.handler_open = True
        self._handler_busy = True
        self.sim.trace.record(self.sim.now, "kernel.boot_handler", self.mid)

    def client_endhandler(self) -> Optional[HandlerEvent]:
        """ENDHANDLER: returns an event to run immediately, if any."""
        self.ledger.charge("context_switch", self.config.timing.endhandler_us)
        self.sim.trace.record(self.sim.now, "kernel.endhandler", self.mid)
        self._handler_busy = False
        if self._pending_handler_open is not None:
            self.handler_open = self._pending_handler_open
            self._pending_handler_open = None
        return self._next_immediate_event()

    def _next_immediate_event(self) -> Optional[HandlerEvent]:
        if not self._handler_eligible():
            return None
        if self.completion_queue:
            event = self.completion_queue.popleft()
        elif self.held is not None:
            held = self._release_held(rollback=False)
            event = self._arrival(held.src, held.packet)
        else:
            return None
        self._handler_busy = True
        self.ledger.charge(
            "context_switch", self.config.timing.context_switch_us
        )
        return event

    def poll_handler(self) -> None:
        """Deliver pending interrupts if the handler just became eligible
        (after OPEN, or after the client leaves a blocking primitive)."""
        event = self._next_immediate_event()
        if event is not None:
            assert self.client is not None
            self.client.run_handler(event)

    # ==================================================================
    # client primitives (§3.7)
    # ==================================================================

    # -- naming ----------------------------------------------------------

    def client_advertise(self, pattern: Pattern) -> None:
        self.patterns.advertise(pattern)
        # Advertisement-table writes are traced so the causal race
        # detector can watch the shared cell (repro.analysis.causal).
        self.sim.trace.record(self.sim.now, "kernel.advertise", self.mid, pattern)

    def client_unadvertise(self, pattern: Pattern) -> None:
        self.patterns.unadvertise(pattern)
        self.sim.trace.record(self.sim.now, "kernel.unadvertise", self.mid, pattern)

    def client_getuniqueid(self) -> Pattern:
        return self.uidgen.next_pattern()

    # -- handler control ---------------------------------------------------

    def client_open(self) -> None:
        if self.client is not None and self.client.executing_handler:
            self._pending_handler_open = True
        else:
            self.handler_open = True
            self.poll_handler()

    def client_close(self) -> None:
        if self.client is not None and self.client.executing_handler:
            self._pending_handler_open = False
        else:
            self.handler_open = False

    # -- REQUEST -------------------------------------------------------------

    def client_request(
        self,
        server_sig: ServerSignature,
        arg: int,
        put_data: bytes = b"",
        get_buffer: Optional[Buffer] = None,
        image: Optional[ProgramImage] = None,
    ) -> int:
        """Non-blocking REQUEST; returns the TID immediately.

        ``image`` rides along with put data during booting: the paper
        PUTs raw core-image bytes; in the simulation the executable part
        is a ProgramImage object (§3.5.2).
        """
        get_buffer = buffer_or_nil(get_buffer)
        limit = self.config.max_message_bytes
        if len(put_data) > limit or get_buffer.capacity > limit:
            raise SodaError(
                f"message exceeds the fixed maximum of {limit} bytes"
            )
        if len(self.requests) >= self.config.max_requests:
            raise TooManyRequestsError(
                f"MAXREQUESTS={self.config.max_requests} already uncompleted"
            )
        tid = self.uidgen.next_tid()
        record = RequestRecord(
            tid=tid,
            server_sig=server_sig,
            arg=arg,
            put_data=put_data,
            get_buffer=get_buffer,
        )
        self.requests[tid] = record
        self.sim.trace.record(
            self.sim.now, "kernel.request",
            self.mid, tid, server_sig.mid, server_sig.pattern, len(put_data),
            get_buffer.capacity,
        )
        if server_sig.mid == BROADCAST:
            record.is_discover = True
            self._start_discover(record)
            return tid
        conn = self._conn(server_sig.mid)
        packet = Packet(
            PacketType.REQUEST,
            pattern=server_sig.pattern,
            tid=tid,
            requester_mid=self.mid,
            arg=arg,
            put_size=len(put_data),
            get_size=get_buffer.capacity,
            data=(
                put_data
                if put_data and self.config.data_with_request
                else None
            ),
            image=image,
        )
        message = OutboundMessage(
            packet,
            "request",
            data_once=True,
            busy_retryable=True,
            on_acked=lambda: self._request_acked(record),
            on_dead=lambda: self._request_peer_dead(record, conn),
            on_transmit=lambda: self._request_transmitted(record),
            void_check=lambda: not record.open,
        )
        record.outbound = message
        conn.enqueue(message)
        return tid

    def _request_transmitted(self, record: RequestRecord) -> None:
        if record.state is RequestState.QUEUED:
            record.state = RequestState.INFLIGHT

    def _request_acked(self, record: RequestRecord) -> None:
        if record.state is not RequestState.INFLIGHT:
            return
        record.state = RequestState.DELIVERED
        self._schedule_probe(record)
        if record.pending_cancel is not None:
            self._send_cancel_packet(record)

    def _request_peer_dead(self, record: RequestRecord, conn: Connection) -> None:
        # A peer never heard from provably never executed the REQUEST, nor
        # did one it was never transmitted to (still QUEUED behind the
        # dead head of the outbox).  One transmitted but never acked is
        # ambiguous: the *ack* may be what was lost, with the server alive
        # and executing behind a partition (docs/RECOVERY.md, retry-safety
        # table).
        heard = conn.heard_from_peer
        self._fail(
            record,
            RequestStatus.CRASHED if heard else RequestStatus.UNADVERTISED,
            "retransmit_exhausted",
            not_executed=(
                True if not heard or record.state is RequestState.QUEUED
                else None
            ),
        )

    def _close_request(
        self,
        record: RequestRecord,
        state: RequestState,
        status: Optional[RequestStatus] = None,
    ) -> None:
        """The one way a REQUEST leaves the open set.

        Every close — ACCEPT arrival, failure completion, DISCOVER
        window end, both CANCEL paths, client reset — comes through
        here, so the three things a close owes cannot drift apart: the
        probe timers are dropped (nowhere else drops them for good), a
        CANCEL still blocked on a REQUEST that completed instead loses
        (FAIL), and the record is retired from ``requests``, which frees
        its MAXREQUESTS slot.  After this a lookup misses; each caller
        of ``requests.get`` answers a miss as it answered the closed
        record (DESIGN.md "Record lifetime").  A withdrawal is traced
        here too: it fires no callback, so nothing can come between.
        """
        record.state = state
        record.completion_status = status
        self._stop_probing(record)
        del self.requests[record.tid]
        if state is RequestState.CANCELLED:
            self._cancelled_tids.add(record.tid)
            self.sim.trace.record(
                self.sim.now, "kernel.cancelled", self.mid, record.tid
            )
        elif record.pending_cancel is not None:
            record.pending_cancel.resolve(CancelStatus.FAIL)
            record.pending_cancel = None

    def _fail(
        self,
        record: RequestRecord,
        status: RequestStatus,
        reason: str,
        not_executed: Optional[bool] = None,
    ) -> None:
        """Close an open REQUEST as failed and tell its handler."""
        if record.open:
            self._close_request(record, RequestState.COMPLETED, status)
            self._complete(
                record, status, reason=reason, not_executed=not_executed
            )

    def _complete(
        self,
        record: RequestRecord,
        status: RequestStatus,
        *,
        arg: int = 0,
        taken_put: int = 0,
        taken_get: int = 0,
        reason: Optional[str] = None,
        not_executed: Optional[bool] = None,
    ) -> None:
        """Trace a closed REQUEST's outcome and deliver its completion
        interrupt: the one ``kernel.complete`` emitter."""
        self.sim.trace.record(
            self.sim.now, "kernel.complete",
            self.mid, record.tid, status.value, arg, taken_put, taken_get,
            reason, not_executed,
        )
        # Crash-report hook (§3.6 → repro.recovery): every failed
        # transaction names the peer it gave up on, why, and whether the
        # failure proves non-execution.  An OVERLOAD rejection is not a
        # crash — the peer answered — so it must not feed the failure
        # detector's suspicion counters.
        if (
            status is RequestStatus.CRASHED
            or status is RequestStatus.UNADVERTISED
        ):
            self.sim.trace.record(
                self.sim.now, "kernel.crash_report",
                self.mid, record.server_sig.mid, record.tid, status.value, reason,
                not_executed,
            )
        self._deliver_completion(
            HandlerEvent(
                reason=HandlerReason.REQUEST_COMPLETE,
                asker=RequesterSignature(self.mid, record.tid),
                status=status,
                arg=arg,
                taken_put=taken_put,
                taken_get=taken_get,
                not_executed=not_executed,
            )
        )

    # -- ACCEPT (inbound, requester side) --------------------------------

    def _handle_accept_packet(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        if not self._accept_sequenced(conn, packet):
            return
        record = self.requests.get(packet.tid)
        # An ACCEPT proves the REQUEST was delivered: treat it as an
        # implicit transport acknowledgement if ours is still pending
        # (its explicit ack may have been lost or deferred).
        if (
            record is not None
            and record.outbound is not None
            and conn.outstanding is record.outbound
        ):
            # Synthesized from the ACCEPT's arrival, not a wire ack: the
            # interval includes server think time, so it must not feed
            # the RTT estimator (implicit=True).
            conn.handle_ack(record.outbound.packet.seq, implicit=True)
        if record is None:
            # No open REQUEST by that name (§3.6.1).  Tids are monotonic
            # and the watermark is the first tid of this incarnation:
            # below it the REQUEST died with an earlier client (CRASHED);
            # at or above it this client completed or cancelled it — the
            # record retired — or never issued it (CANCELLED).
            code = (
                NackCode.CRASHED
                if packet.tid < self._tid_watermark
                else NackCode.CANCELLED
            )
            conn.send_nack(code, tid=packet.tid)
            return
        # Normal completion.
        self._close_request(
            record, RequestState.COMPLETED, RequestStatus.COMPLETED
        )
        taken_get = 0
        if packet.data is not None:
            taken_get = record.get_buffer.write(packet.data)
        if packet.pull_data:
            # The server never saw our put data (it was stripped from a
            # retransmission); ship it now, reliably.
            data = record.put_data[: packet.taken_put]
            pull_packet = Packet(
                PacketType.DATA, tid=record.tid, data=data if data else None
            )
            conn.enqueue_priority(OutboundMessage(pull_packet, "data"))
        self._complete(
            record,
            RequestStatus.COMPLETED,
            arg=packet.arg,
            taken_put=packet.taken_put,
            taken_get=taken_get,
        )

    # -- ACCEPT (outbound, server side) -------------------------------------

    def client_accept(
        self,
        req_sig: RequesterSignature,
        arg: int,
        get_buffer: Optional[Buffer] = None,
        put_data: bytes = b"",
    ) -> "SimFuture":
        """Blocking ACCEPT; resolves to an AcceptStatus."""
        get_buffer = buffer_or_nil(get_buffer)
        future = self.sim.new_future()
        delivered = self.delivered.get(req_sig)
        conn = self.connections.get(req_sig.mid)
        dead = conn is not None and conn.declared_dead
        acceptable = (
            delivered is not None
            and delivered.state is DeliveredState.DELIVERED
        )
        if dead or not acceptable:
            # Completed, cancelled, never delivered here, or forged
            # (§3.3.2 rule 6): CANCELLED.  A requester already known to
            # have crashed is reported CRASHED immediately (§3.3.2), and
            # no ACCEPT can reach it: an open delivery is settled as
            # _accept_peer_dead settles it, so a PROBE from a requester
            # that was only cut off is answered "not alive", not "alive"
            # forever.
            if acceptable:
                delivered.reply_dead = True
                self._set_delivered_state(delivered, DeliveredState.DONE)
            self.sim.schedule(
                self.config.timing.protocol_send_us,
                future.resolve,
                AcceptStatus.CRASHED if dead else AcceptStatus.CANCELLED,
            )
            return future
        conn = self._conn(req_sig.mid)
        self._set_delivered_state(delivered, DeliveredState.ACCEPTED)
        taken_put = min(delivered.put_size, get_buffer.capacity)
        taken_get = min(len(put_data), delivered.get_size)
        pull = delivered.put_data is None and taken_put > 0
        copy_bytes = 0
        if delivered.put_data is not None and taken_put > 0:
            get_buffer.write(delivered.put_data[:taken_put])
            copy_bytes = taken_put
        data = put_data[:taken_get] if taken_get > 0 else None
        packet = Packet(
            PacketType.ACCEPT,
            tid=req_sig.tid,
            arg=arg,
            data=data,
            pull_data=pull,
            taken_put=taken_put,
            taken_get=taken_get,
        )
        if pull:
            wait_for = "data"
        elif data is not None:
            wait_for = "ack"
        else:
            wait_for = "none"
        pending = PendingAccept(
            sig=req_sig,
            future=future,
            get_buffer=get_buffer,
            wait_for=wait_for,
        )
        self.pending_accepts[req_sig] = pending
        if copy_bytes:
            self.ledger.charge(
                "protocol", self.config.timing.copy_cost_us(copy_bytes)
            )
        message = OutboundMessage(
            packet,
            "accept",
            on_acked=lambda: self._accept_acked(pending, delivered),
            on_dead=lambda: self._accept_peer_dead(pending, delivered),
            on_transmit=(
                (lambda: self._accept_noted(pending, delivered))
                if wait_for == "none"
                else None
            ),
        )
        conn.enqueue(message)
        self.sim.trace.record(
            self.sim.now, "kernel.accept",
            self.mid, str(req_sig), req_sig.mid, req_sig.tid, wait_for, taken_put,
            taken_get,
        )
        return future

    def _accept_stale(
        self, pending: PendingAccept, delivered: DeliveredRequest
    ) -> bool:
        """True if this ACCEPT's transport callback outlived its
        incarnation: a DIE/BOOT (or crash) cleared ``self.delivered``
        while the ACCEPT was still in the connection's outbox, so the
        late ack/death must not resurrect the dead incarnation's state
        (it would emit an illegal ``delivered_state`` transition).  A
        delivery is never retired while its ACCEPT can still call back,
        so within one incarnation the lookup hits."""
        return self.delivered.get(pending.sig) is not delivered

    def _accept_noted(
        self, pending: PendingAccept, delivered: DeliveredRequest
    ) -> None:
        if not self._accept_stale(pending, delivered):
            # Dataless ACCEPT: the exchange was local; unblock the server
            # as soon as the kernel has noted and dispatched the command.
            # The delivery stays (DONE, answering PROBEs) until the
            # ACCEPT's ack.
            self._settle(pending.sig, AcceptStatus.SUCCESS)

    def _accept_acked(
        self, pending: PendingAccept, delivered: DeliveredRequest
    ) -> None:
        if self._accept_stale(pending, delivered):
            return
        delivered.accept_acked = True
        if pending.wait_for == "ack":
            self._settle(pending.sig, AcceptStatus.SUCCESS)
        else:
            # Settled at transmission ("none") or when the DATA arrives
            # ("data"): the ack may be all the delivery waited for.
            self._retire_if_settled(delivered)

    def _accept_peer_dead(
        self, pending: PendingAccept, delivered: DeliveredRequest
    ) -> None:
        if not self._accept_stale(pending, delivered):
            delivered.reply_dead = True
            self._settle(pending.sig, AcceptStatus.CRASHED)

    def _settle(self, sig: RequesterSignature, status: AcceptStatus) -> None:
        """An ACCEPT's exchange is over: its delivery goes DONE (retiring
        if nothing can ask about it any more), then the server's blocked
        ACCEPT returns ``status``."""
        delivered = self.delivered.get(sig)
        if delivered is not None:
            self._set_delivered_state(delivered, DeliveredState.DONE)
        pending = self.pending_accepts.pop(sig, None)
        if pending is not None:
            pending.resolve(status)

    def _handle_data_packet(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        if not self._accept_sequenced(conn, packet):
            return
        sig = RequesterSignature(src, packet.tid)
        pending = self.pending_accepts.get(sig)
        if pending is not None:
            if packet.data is not None:
                pending.get_buffer.write(packet.data)
            self._settle(sig, AcceptStatus.SUCCESS)

    # -- CANCEL ----------------------------------------------------------

    def client_cancel(self, req_sig: RequesterSignature) -> "SimFuture":
        """Blocking CANCEL; resolves to a CancelStatus."""
        future = self.sim.new_future()
        small = self.config.timing.protocol_send_us
        ours = req_sig.mid == self.mid
        record = self.requests.get(req_sig.tid) if ours else None
        if record is None:
            # Not open: already withdrawn (SUCCESS again), or completed,
            # never issued, or another incarnation's or machine's (FAIL).
            withdrawn = ours and req_sig.tid in self._cancelled_tids
            self.sim.schedule(
                small,
                future.resolve,
                CancelStatus.SUCCESS if withdrawn else CancelStatus.FAIL,
            )
            return future
        if record.state is RequestState.QUEUED:
            self._close_request(record, RequestState.CANCELLED)
            self.sim.schedule(small, future.resolve, CancelStatus.SUCCESS)
            return future
        record.pending_cancel = future
        if record.state is RequestState.DELIVERED:
            self._send_cancel_packet(record)
        # INFLIGHT: wait for the ack (then _request_acked sends the
        # cancel) or for a failure completion (then FAIL).
        return future

    def _send_cancel_packet(self, record: RequestRecord) -> None:
        conn = self._conn(record.server_sig.mid)
        packet = Packet(PacketType.CANCEL, tid=record.tid)
        conn.enqueue(
            OutboundMessage(
                packet,
                "cancel",
                on_dead=lambda: self._cancel_peer_dead(record),
            )
        )

    def _cancel_peer_dead(self, record: RequestRecord) -> None:
        # Server unreachable: the request will complete CRASHED through
        # its own machinery; report the cancel as failed.
        if record.pending_cancel is not None:
            record.pending_cancel.resolve(CancelStatus.FAIL)
            record.pending_cancel = None

    def _handle_cancel_packet(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        if not self._accept_sequenced(conn, packet):
            return
        sig = RequesterSignature(src, packet.tid)
        delivered = self.delivered.get(sig)
        ok = delivered is not None and delivered.state is DeliveredState.DELIVERED
        if ok:
            self._set_delivered_state(delivered, DeliveredState.CANCELLED)
        conn.send_unsequenced(
            Packet(PacketType.CANCEL_REPLY, tid=packet.tid, arg=1 if ok else 0)
        )

    def _handle_cancel_reply(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        record = self.requests.get(packet.tid)
        if record is None or record.pending_cancel is None:
            return
        future, record.pending_cancel = record.pending_cancel, None
        if packet.arg == 1:
            self._close_request(record, RequestState.CANCELLED)
            future.resolve(CancelStatus.SUCCESS)
        else:
            future.resolve(CancelStatus.FAIL)

    # -- probes (§3.6.2) ---------------------------------------------------

    def _schedule_probe(self, record: RequestRecord) -> None:
        if not record.open:
            # A retired record is out of every table's reach: a timer
            # armed on it could never be found and stopped again.
            return
        self._stop_probing(record)
        record.probe_timer = self.sim.schedule(
            self.config.probe_interval_us, self._probe_fire, record
        )

    def _stop_probing(self, record: RequestRecord) -> None:
        for attr in ("probe_timer", "probe_deadline"):
            timer = getattr(record, attr)
            if timer is not None:
                timer.cancel()
                setattr(record, attr, None)

    def leaked_probe_timers(self) -> List[Tuple[int, str]]:
        """Oracle hook: ``(tid, timer name)`` for every live probe timer
        held by a REQUEST that is no longer open (INV-DELTAT, liveness).

        A closed record is in no table, so there is nothing to walk —
        but a timer it leaked is still in the scheduler, with the record
        as its argument: the simulator's pending events are searched for
        this kernel's probe callbacks.  (A wall-clock backend cannot
        enumerate its timers and reports none.)
        """
        pending_events = getattr(self.sim, "pending_events", None)
        if pending_events is None:
            return []
        leaks = []
        for event in pending_events():
            if event.fn == self._probe_fire:
                attr = "probe_timer"
            elif event.fn == self._probe_timeout:
                attr = "probe_deadline"
            else:
                continue
            record = event.args[0]
            if not record.open:
                leaks.append((record.tid, attr))
        return sorted(leaks)

    def _probe_fire(self, record: RequestRecord) -> None:
        record.probe_timer = None
        if record.state is not RequestState.DELIVERED:
            return
        packet = Packet(PacketType.PROBE, tid=record.tid)
        self.transmit_packet(record.server_sig.mid, packet, sequenced=False)
        record.probe_deadline = self.sim.schedule(
            self.config.retransmit.ack_timeout_us, self._probe_timeout, record
        )

    def _probe_timeout(self, record: RequestRecord) -> None:
        record.probe_deadline = None
        if record.state is not RequestState.DELIVERED:
            return
        record.probe_failures += 1
        if record.probe_failures >= self.config.probe_failures_to_crash:
            self._fail(record, RequestStatus.CRASHED, "probe_timeout")
        else:
            self._probe_fire(record)

    def _handle_probe(self, src: int, packet: Packet, conn: Connection) -> None:
        sig = RequesterSignature(src, packet.tid)
        delivered = self.delivered.get(sig)
        if (
            delivered is not None
            and not delivered.reply_dead
            and delivered.state is not DeliveredState.CANCELLED
        ):
            arg = 1
        elif sig in self.crashed_unaccepted:
            # The previous incarnation died holding this REQUEST
            # DELIVERED but never ACCEPTed: the handler provably never
            # ran, so tell the requester a retry is safe.
            arg = 2
        else:
            arg = 0
        conn.send_unsequenced(
            Packet(
                PacketType.PROBE_REPLY,
                tid=packet.tid,
                arg=arg,
                # Which incarnation is vouching: a reply carrying a newer
                # epoch than the delivery proves the answering kernel is
                # not the one that holds the REQUEST
                # (repro.analysis.causal).
                epoch=self.epoch,
            )
        )

    def _handle_probe_reply(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        record = self.requests.get(packet.tid)
        if record is None or record.state is not RequestState.DELIVERED:
            return
        if record.probe_deadline is not None:
            record.probe_deadline.cancel()
            record.probe_deadline = None
        if packet.arg == 1:
            record.probe_failures = 0
            self._schedule_probe(record)
        elif packet.arg == 2:
            self._fail(
                record, RequestStatus.CRASHED, "probe_crashed_unaccepted",
                not_executed=True,
            )
        else:
            self._fail(record, RequestStatus.CRASHED, "probe_denied")

    # -- DISCOVER (§3.4.4, §5.3) ------------------------------------------

    def _start_discover(self, record: RequestRecord) -> None:
        token = next(self._discover_tokens)
        state = DiscoverState(record=record)
        state.timer = self.sim.schedule(
            self.config.discover_window_us, self._discover_done, token
        )
        self._discovers[token] = state
        packet = Packet(
            PacketType.DISCOVER_QUERY,
            pattern=record.server_sig.pattern,
            query_token=token,
            requester_mid=self.mid,
        )
        record.state = RequestState.INFLIGHT
        self.transmit_packet(BROADCAST_MID, packet, sequenced=False)

    def _handle_discover_query(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        pattern = packet.pattern
        if not (
            self.patterns.matches(pattern)
            or (
                is_reserved(pattern)
                and self._boot_active
                and pattern in self.boot_patterns
            )
        ):
            return
        # Staggered replies avoid a response collision storm (§5.3).
        delay = self.mid * self.config.discover_stagger_us
        reply = Packet(
            PacketType.DISCOVER_REPLY,
            reply_mid=self.mid,
            query_token=packet.query_token,
        )
        self.sim.schedule(
            delay, self.transmit_packet, src, reply, 0, False
        )

    def _handle_discover_reply(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        state = self._discovers.get(packet.query_token)
        if state is not None:
            state.mids.add(packet.reply_mid)

    def _discover_done(self, token: int) -> None:
        state = self._discovers.pop(token, None)
        if state is None or not state.record.open:
            return
        record = state.record
        self._close_request(
            record, RequestState.COMPLETED, RequestStatus.COMPLETED
        )
        self._complete(
            record,
            RequestStatus.COMPLETED,
            taken_get=record.get_buffer.write(
                mids_to_bytes(sorted(state.mids))
            ),
        )

    #: Packet type -> its handler, all called ``(kernel, src, packet,
    #: conn)``; an ACK has none, its ``handle_ack`` was the whole of it.
    #: Keyed by the type's value: a str hashes in C, an Enum member by a
    #: Python ``__hash__`` call per packet.
    _DISPATCH = {
        PacketType.NACK.value: _handle_nack,
        PacketType.REQUEST.value: _handle_request_packet,
        PacketType.ACCEPT.value: _handle_accept_packet,
        PacketType.DATA.value: _handle_data_packet,
        PacketType.CANCEL.value: _handle_cancel_packet,
        PacketType.CANCEL_REPLY.value: _handle_cancel_reply,
        PacketType.PROBE.value: _handle_probe,
        PacketType.PROBE_REPLY.value: _handle_probe_reply,
        PacketType.DISCOVER_QUERY.value: _handle_discover_query,
        PacketType.DISCOVER_REPLY.value: _handle_discover_reply,
    }

    # ==================================================================
    # reserved patterns: boot / load / kill / system (§3.5)
    # ==================================================================

    def _handle_reserved_request(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        pattern = packet.pattern
        if pattern == self.kill_pattern:
            self._kernel_accept(src, packet)
            self._kill_client()
            return
        if pattern in self.boot_patterns:
            if not self._boot_active:
                conn.send_nack(NackCode.UNADVERTISED, tid=packet.tid)
                return
            self._begin_load(src, packet)
            return
        if self._load is not None and pattern == self._load.load_pattern:
            self._handle_load_request(src, packet)
            return
        if pattern == SYSTEM_PATTERN:
            self._handle_system_request(src, packet, conn)
            return
        if (
            pattern == KERNEL_RMR_PATTERN
            and self.config.kernel_rmr
            and self.rmr_memory is not None
        ):
            self._handle_kernel_rmr(src, packet, conn)
            return
        conn.send_nack(NackCode.UNADVERTISED, tid=packet.tid)

    def _handle_kernel_rmr(self, src: int, packet: Packet, conn: Connection) -> None:
        """§6.17.2: PEEK (GET) / POKE (PUT) served by the kernel.

        Unlike other reserved patterns, CLOSE gates access — that is the
        synchronization mechanism the paper proposes for protecting
        critical sections against remote references.
        """
        if not self.handler_open:
            # CLOSEd: REJECT so the requester retries with a fresh
            # REQUEST (carrying its data again); a transport-level BUSY
            # here would strip POKE data from the retransmission.
            self._kernel_reject(src, packet)
            return
        memory = self.rmr_memory
        address = packet.arg
        if address < 0 or address > len(memory):
            self._kernel_reject(src, packet)
            return
        if packet.put_size > 0:
            # POKE: install the bytes (they rode with the REQUEST).
            data = packet.data or b""
            nbytes = min(len(data), len(memory) - address)
            memory[address : address + nbytes] = data[:nbytes]
            self.ledger.charge(
                "protocol", self.config.timing.copy_cost_us(nbytes)
            )
            self._kernel_accept(src, packet)
        else:
            nbytes = min(packet.get_size, len(memory) - address)
            chunk = bytes(memory[address : address + nbytes])
            self.ledger.charge(
                "protocol", self.config.timing.copy_cost_us(nbytes)
            )
            self._kernel_accept(src, packet, data=chunk)

    def client_register_rmr_memory(self, memory: bytearray) -> None:
        """Expose client memory to the kernel RMR handler (§6.17.2)."""
        if not self.config.kernel_rmr:
            raise SodaError("kernel_rmr is disabled in this configuration")
        self.rmr_memory = memory

    def _begin_load(self, src: int, packet: Packet) -> None:
        # GET on a boot pattern: mint a LOAD pattern, make it reserved,
        # retire the boot patterns, and hand the load pattern back.
        load_pattern = (
            self.uidgen.next_pattern() | (1 << 47)
        )  # convert to a RESERVED pattern (§3.5.2)
        self._load = LoadState(load_pattern=load_pattern, parent_mid=src)
        self._boot_active = False
        self.sim.trace.record(self.sim.now, "kernel.boot_granted", self.mid, src)
        self._kernel_accept(src, packet, data=pattern_to_bytes(load_pattern))

    def _handle_load_request(self, src: int, packet: Packet) -> None:
        load = self._load
        assert load is not None
        if packet.put_size > 0:
            # A PUT of core-image bytes (possibly carrying the simulated
            # ProgramImage object).
            if packet.image is not None:
                load.image = packet.image
            load.bytes_received += packet.put_size
            self._kernel_accept(src, packet)
            return
        # A SIGNAL: first one starts the client, the second kills it.
        if not load.started:
            if self.client is not None and not self.client.dead:
                # The boot was superseded: another parent installed a
                # client while this load was in flight (e.g. a chaos
                # Reboot racing a supervisor reboot).  REJECT instead of
                # starting a second client on a live node.
                self._load = None
                self._kernel_reject(src, packet)
                return
            load.started = True
            self._kernel_accept(src, packet)
            self._start_loaded_client(load)
        else:
            self._kernel_accept(src, packet)
            self._kill_client()

    def _start_loaded_client(self, load: LoadState) -> None:
        if self.node is None:
            raise SodaError("kernel has no node; cannot start booted clients")
        self.sim.trace.record(
            self.sim.now, "kernel.boot_start",
            self.mid, load.parent_mid,
        )
        self.node.start_booted_client(load.image, load.parent_mid)

    def _handle_system_request(
        self, src: int, packet: Packet, conn: Connection
    ) -> None:
        # Only machine 0 may alter reserved patterns (§3.5.4).
        if src != 0:
            conn.send_nack(NackCode.UNADVERTISED, tid=packet.tid)
            return
        action = packet.arg
        if action == SYSTEM_ADD_BOOT and packet.data:
            pattern = pattern_from_bytes(packet.data)
            if pattern not in self.boot_patterns:
                self.boot_patterns.append(pattern)
        elif action == SYSTEM_DELETE_BOOT and packet.data:
            pattern = pattern_from_bytes(packet.data)
            if pattern in self.boot_patterns:
                self.boot_patterns.remove(pattern)
        elif action == SYSTEM_REPLACE_KILL and packet.data:
            self.kill_pattern = pattern_from_bytes(packet.data)
        else:
            self._kernel_reject(src, packet)
            return
        self._kernel_accept(src, packet)

    def _kernel_accept(
        self, src: int, packet: Packet, arg: int = 0, data: Optional[bytes] = None
    ) -> None:
        """Complete a REQUEST kernel-side (reserved patterns)."""
        conn = self._conn(src)
        taken_get = min(len(data) if data else 0, packet.get_size)
        reply = Packet(
            PacketType.ACCEPT,
            tid=packet.tid,
            arg=arg,
            data=data[:taken_get] if data and taken_get else None,
            taken_put=packet.put_size,
            taken_get=taken_get,
        )
        conn.enqueue(OutboundMessage(reply, "accept"))

    def _kernel_reject(self, src: int, packet: Packet) -> None:
        self._kernel_accept(src, packet, arg=-1)

    # ==================================================================
    # client lifecycle
    # ==================================================================

    def attach_client(self, client: ClientProcessor) -> None:
        if self.client is not None and not self.client.dead:
            raise SodaError("node already has a live client")
        self.client = client
        self._boot_active = False
        self._tid_watermark = self.uidgen.counter
        self.handler_open = False
        self._handler_busy = False
        self._pending_handler_open = None

    def client_die(self) -> None:
        """DIE: reset kernel state; the node becomes bootable again."""
        self.sim.trace.record(self.sim.now, "kernel.die", self.mid)
        self._kill_client()

    def _kill_client(self) -> None:
        if self.client is not None:
            self.client.kill()
        self.client = None
        self._reset_client_state()

    def _reset_client_state(self) -> None:
        # Every TID issued so far belongs to the dead incarnation; an
        # ACCEPT naming one must be answered CRASHED, not CANCELLED
        # (§3.6.1 "stale" ACCEPTs).
        self.epoch += 1
        self.sim.trace.record(self.sim.now, "kernel.client_reset", self.mid, self.epoch)
        self._tid_watermark = self.uidgen.counter
        self.patterns.clear()
        self.completion_queue.clear()
        for record in list(self.requests.values()):
            # Traced as a withdrawal, so span reconstruction (and the
            # chaos liveness check) sees a terminal state for every
            # REQUEST the dead incarnation left in flight.
            self._close_request(record, RequestState.CANCELLED)
        self._cancelled_tids.clear()
        # Remember which exchanges died DELIVERED-but-unACCEPTed: their
        # handlers never ran, and probes answer arg=2 for them so the
        # requester learns the failure proves non-execution.  Only the
        # latest incarnation is remembered; older signatures fall back to
        # the ambiguous arg=0 answer, which is the safe direction.
        self.crashed_unaccepted = {
            sig
            for sig, delivered in self.delivered.items()
            if delivered.state is DeliveredState.DELIVERED
        }
        self.delivered.clear()
        # Open DISCOVER windows belong to the dead incarnation: cancel
        # their timers so late DISCOVER_REPLYs cannot touch dead state.
        for state in self._discovers.values():
            if state.timer is not None:
                state.timer.cancel()
        self._discovers.clear()
        for pending in list(self.pending_accepts.values()):
            if not pending.resolved:
                pending.resolved = True  # futures belong to the dead client
        self.pending_accepts.clear()
        if self.held is not None:
            self._release_held(rollback=True)
        self.handler_open = False
        self._handler_busy = False
        self._pending_handler_open = None
        self._load = None
        self._boot_active = True
        self.rmr_memory = None

    # -- full node crash -----------------------------------------------------

    def crash_node(self) -> None:
        """Power failure: client and kernel state are lost; after the
        Delta-t quiet period the node may rejoin (§5.2.2)."""
        self._kill_client()
        # A power failure loses kernel memory too: the crashed-unaccepted
        # set does not survive, so post-recovery probes answer arg=0
        # (ambiguous), never a false "provably unexecuted".
        self.crashed_unaccepted.clear()
        for conn in self.connections.values():
            conn.reset()
        self.connections.clear()
        quiet = self.config.deltat.crash_quiet_us
        self.offline_until = self.sim.now + quiet
        self.sim.trace.record(self.sim.now, "kernel.crash", self.mid, quiet)
        self.sim.schedule(quiet, self._recover)

    def _recover(self) -> None:
        self.offline_until = None
        self.uidgen.reboot(self.uidgen.counter + 1)
        self._boot_active = self.client is None
        self.sim.trace.record(self.sim.now, "kernel.recovered", self.mid)

    def __repr__(self) -> str:
        return f"<SodaKernel mid={self.mid} {self.machine_type}>"
