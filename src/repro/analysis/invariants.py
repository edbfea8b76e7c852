"""Post-run trace invariant checking.

Replays a :class:`~repro.sim.tracing.Tracer` record stream and asserts
transport invariants that must hold on every run:

* **INV-SEQ** — alternating-bit correctness per directed connection: a
  retransmission never changes its sequence bit, and a *new* message
  flips the bit of the previous one (unless a BUSY park swapped the
  channel, the peer was declared dead, or the sender crashed — the three
  legitimate resynchronization points, §5.2.2-§5.2.3).
* **INV-DELTAT** — bounded retransmission: absent BUSY NACKs, a message
  is transmitted at most ``max_ack_attempts`` times, inside the window
  the retransmit policy allows, before the peer is declared dead.
* **INV-HANDLER** — handler invocations never nest (§3.2): interrupt
  and ENDHANDLER records strictly alternate per node.
* **INV-COMPLETE** — every DELIVERED request reaches a terminal state
  (DONE or CANCELLED) through legal transitions; in strict mode a
  request still sitting DELIVERED/ACCEPTED at the end of the run is a
  leak unless its requester stopped waiting for it (a
  ``kernel.complete`` with status other than ``completed``, or a
  ``kernel.cancelled``, for that ``<src, tid>``).
* **INV-LEDGER** — the cost ledger's total equals the sum of the
  per-category charges, categories are known, and no charge is negative.
* **SODA007** — BUSY retry earlier than hinted: when a BUSY NACK
  carries an explicit retry hint (the overload controller's widened
  decaying-rate hint, §5.2.3), the client must not decide to retry the
  nacked message before the hinted delay has elapsed.  The rule judges
  the decision (``conn.busy_retry``), not the wire: a retry decided
  before a later hint lands may still reach the wire after it, behind
  kernel-CPU queueing.  It binds a client only to hints that actually
  *reached* it (the ``hint`` field on its own ``kernel.rx`` record),
  and a priority swap (§5.2.3) releases the parked message from the
  constraint.

The checker consumes the extra record fields the kernel emits for it
(``seq``/``pid``/``ack``/``nack`` on ``kernel.tx``/``kernel.rx``,
``kernel.endhandler``, ``kernel.delivered_state``,
``kernel.client_reset``).

**One pass, O(open work) state.**  :class:`InvariantChecker` is a
forward-only state machine: a record sink (its ``HANDLERS`` rows) that
a :class:`~repro.sim.tracing.SinkTable` feeds — live on a tracer
(``SinkTable(checker).install(net)``, so a soak need not retain its
trace at all) or over a retained trace (:meth:`~InvariantChecker.check`,
:func:`check_stream`, :func:`check_network`) — and
:meth:`~InvariantChecker.finish` closes once.  State is retired as
transactions close:

* a message's send-direction state is retired the moment a *new*
  message starts on its connection — the alternating-bit protocol
  guarantees the old one will never transmit again, so its INV-DELTAT
  verdict is already decided (``retry_window_bound_us`` is a pure
  function of the policy knobs, not of run state, so evaluating at
  retirement equals evaluating at end of run); only the verdicts of the
  rare *dirty* messages are kept, not the state of every clean one;
* a delivered-request cell is retired on reaching a terminal state
  (DONE/CANCELLED) — the kernel deletes its record then, so no further
  transition can reference it — and its "requester stopped waiting"
  mark, kept only on open cells, goes with it;
* BUSY NACKs, peer-death, sequence swaps, crashes and resets clear
  retained state, pending verdicts of retired messages included.

Peak retained state is therefore proportional to *open* work — live
messages, undecided delivered requests, pending verdicts — not to trace
length (``tests/analysis/test_streaming_checker.py`` and the soak in
``tests/integration/test_soak.py`` hold it to that).

**What retirement gives up.**  The rules above are exact on any trace a
SODA kernel can emit.  A hand-built trace that breaks a kernel
guarantee is judged by what the checker still holds: a retired message
transmitting again is a *new* message to it (its bit is compared with
its successor's, not with its own earlier sends, and its Delta-t count
and window restart), and a delivered cell written after its terminal
state is a transition from ``None``.  Either can pass unflagged; the
guarantee they lean on — the alternating bit, one record per delivered
request — is the kernel's to keep and INV-SEQ's to check on the sends
that are still live (DESIGN.md §12.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.kernel import DELIVERED_SUCCESSORS
from repro.sim.tracing import CostLedger, SinkTable, TraceRecord, Tracer
from repro.transport.retransmit import RetransmitPolicy

#: ``DELIVERED_SUCCESSORS`` by the state values a trace carries.
_SUCCESSORS = {
    None if old is None else old.value: frozenset(new.value for new in successors)
    for old, successors in DELIVERED_SUCCESSORS.items()
}


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, anchored to the trace."""

    invariant: str
    time: float
    mid: Optional[int]
    message: str

    def format(self) -> str:
        where = f"mid={self.mid}" if self.mid is not None else "-"
        return (
            f"t={self.time/1000.0:.3f}ms {self.invariant} [{where}] "
            f"{self.message}"
        )

    def __str__(self) -> str:
        return self.format()


class _Message:
    """The one live sequenced message of a connection."""

    __slots__ = (
        "pid", "seq", "first_us", "last_us", "count", "data_bytes", "busy", "tid"
    )

    def __init__(self, pid: int, seq: int, time: float, data_bytes: int, tid) -> None:
        self.pid = pid
        self.seq = seq
        self.first_us = time
        self.last_us = time
        self.count = 1
        self.data_bytes = data_bytes
        self.busy = False
        self.tid: Optional[int] = tid


class _ConnState:
    """Send-direction state of one (sender, peer) pair."""

    __slots__ = ("last_new_seq", "resync_ok", "live", "busy_hint")

    def __init__(self) -> None:
        self.last_new_seq: Optional[int] = None
        #: A BUSY NACK or dead-peer declaration since the last new message
        #: legitimizes a non-flipping sequence bit on the next one.
        self.resync_ok = False
        self.live: Optional[_Message] = None
        #: SODA007: earliest time the live message's next BUSY retry
        #: may be decided, set when a BUSY NACK carrying an explicit
        #: retry hint arrives.
        self.busy_hint: Optional[float] = None


class InvariantChecker:
    """The invariant state machine.

    A :class:`~repro.sim.tracing.SinkTable` feeds it records, then
    :meth:`finish` runs the end-of-trace verdicts once; :meth:`check`
    does both for a retained trace.  Violations detectable mid-stream
    (INV-SEQ, INV-HANDLER, illegal transitions, SODA007) are appended
    to :attr:`violations` as they happen.
    """

    def __init__(
        self,
        network=None,
        strict_completion: bool = True,
        policy: Optional[RetransmitPolicy] = None,
    ) -> None:
        self.network = network
        self.strict_completion = strict_completion
        self._default_policy = policy or RetransmitPolicy()
        self.violations: List[InvariantViolation] = []
        self._conns: Dict[Tuple[int, int], _ConnState] = {}
        #: Verdicts of retired dirty messages, by (mid, dst, pid).
        self._deltat_pending: Dict[Tuple[int, int, int], InvariantViolation] = {}
        #: Open (non-terminal) delivered-request cells only.
        self._delivered: Dict[Tuple[int, int, int], str] = {}
        #: Open cells whose requester stopped waiting (a subset of
        #: ``_delivered``, retired with them): not a leak at the end.
        self._abandoned: Set[Tuple[int, int, int]] = set()
        self._handler_depth: Dict[int, int] = {}
        self._finished = False
        #: Connections whose ``live`` is set, counted where it changes so
        #: that no record has to re-sum every connection.
        self._live_messages = 0
        self.peak_open_state = 0

    def _policy_for(self, mid: int) -> RetransmitPolicy:
        if self.network is not None:
            node = self.network.nodes.get(mid)
            if node is not None:
                return node.kernel.config.retransmit
        return self._default_policy

    # -- state accounting --------------------------------------------------

    def open_state(self) -> int:
        """Retained stateful entries right now: live messages, pending
        verdicts, open delivered cells."""
        return (
            self._live_messages
            + len(self._deltat_pending)
            + len(self._delivered)
        )

    def _note_growth(self) -> None:
        """Called by the two handlers that can *add* state; everything
        else only retires it, so no record's peak is missed."""
        open_now = self.open_state()
        if open_now > self.peak_open_state:
            self.peak_open_state = open_now

    def _withdraw_pending(self, *prefix: int) -> None:
        """Drop the pending verdicts of one sender (``mid``) or one
        connection (``mid, dst``)."""
        pending = self._deltat_pending
        if pending:  # rarely: only dirty messages leave one
            for key in [k for k in pending if k[: len(prefix)] == prefix]:
                del pending[key]

    def check(
        self, trace: Tracer, ledger: Optional[CostLedger] = None
    ) -> List[InvariantViolation]:
        """Replay a retained trace and finish."""
        table = SinkTable(self)
        table.replay(trace.records)
        return self.finish(ledger=ledger, end_time=table.end_time)

    # -- per-category handlers ---------------------------------------------

    def _on_peer_dead(self, rec: TraceRecord) -> None:
        conn = self._conns.get((rec["mid"], rec["peer"]))
        if conn is not None:
            conn.resync_ok = True
            conn.busy_hint = None

    def _on_seq_swap(self, rec: TraceRecord) -> None:
        # A priority message displaced a BUSY-parked one (§5.2.3): the
        # parked message's next transmission is a fresh send with a new
        # bit, and the taker reuses the parked one's bit.
        mid, peer, parked = rec["mid"], rec["peer"], rec["parked_pid"]
        conn = self._conns.get((mid, peer))
        if conn is not None:
            if conn.live is not None and conn.live.pid == parked:
                self._forget_live(conn)
            self._deltat_pending.pop((mid, peer, parked), None)
            conn.resync_ok = True

    def _on_handler_entry(self, rec: TraceRecord) -> None:
        # Initialization (``kernel.boot_handler``) is a handler like any
        # other: it closes with ``kernel.endhandler`` and an interrupt
        # delivered before that nests.
        mid = rec["mid"]
        depth = self._handler_depth.get(mid, 0) + 1
        self._handler_depth[mid] = depth
        if depth > 1:
            self.violations.append(
                InvariantViolation(
                    "INV-HANDLER",
                    rec.time,
                    mid,
                    f"handler invoked while a previous invocation "
                    f"is still open (depth {depth}); handlers "
                    f"must never nest",
                )
            )

    def _on_handler_exit(self, rec: TraceRecord) -> None:
        mid = rec["mid"]
        self._handler_depth[mid] = max(
            0, self._handler_depth.get(mid, 0) - 1
        )

    def _on_reset(self, rec: TraceRecord) -> None:
        mid = rec["mid"]
        self._handler_depth[mid] = 0
        for cell in [k for k in self._delivered if k[0] == mid]:
            del self._delivered[cell]
            self._abandoned.discard(cell)
        if rec.category == "kernel.crash":
            for key in [k for k in self._conns if k[0] == mid]:
                self._forget_live(self._conns.pop(key))
            self._withdraw_pending(mid)

    def _forget_live(self, conn: _ConnState) -> None:
        if conn.live is not None:
            conn.live = None
            self._live_messages -= 1
        conn.busy_hint = None

    def _on_rx(self, rec: TraceRecord) -> None:
        if rec.get("nack") != "busy":
            return
        key = (rec["mid"], rec["src"])
        conn = self._conns.get(key)
        if conn is None:
            return
        conn.resync_ok = True
        # BUSY retries are unbounded by design, and the regime covers
        # the connection: verdicts already computed for its retired
        # messages are withdrawn along with the live one's.
        self._withdraw_pending(*key)
        live = conn.live
        if live is not None:
            live.busy = True
            # SODA007: the hinted delay binds the nacked message
            # (matched by tid) from the moment the hint reached this
            # client.
            hint = rec.get("hint")
            if (
                hint is not None
                and live.tid is not None
                and live.tid == rec.get("tid")
            ):
                conn.busy_hint = rec.time + hint

    def _on_tx(self, rec: TraceRecord) -> None:
        seq = rec.get("seq")
        pid = rec.get("pid")
        if seq is None or pid is None:
            return  # unsequenced traffic (acks, probes, discover, ...)
        mid, dst = rec["mid"], rec["dst"]
        if seq not in (0, 1):
            self.violations.append(
                InvariantViolation(
                    "INV-SEQ", rec.time, mid,
                    f"sequence bit {seq!r} is not alternating-bit",
                )
            )
            return
        key = (mid, dst)
        conn = self._conns.get(key)
        if conn is None:
            conn = self._conns[key] = _ConnState()
        live = conn.live
        if live is not None and live.pid == pid:
            if seq != live.seq:
                self.violations.append(
                    InvariantViolation(
                        "INV-SEQ",
                        rec.time,
                        mid,
                        f"retransmission of pkt#{pid} to {dst} changed "
                        f"its sequence bit {live.seq} -> {seq}",
                    )
                )
            live.count += 1
            live.last_us = rec.time
            return
        if (
            conn.last_new_seq is not None
            and not conn.resync_ok
            and seq != 1 - conn.last_new_seq
        ):
            self.violations.append(
                InvariantViolation(
                    "INV-SEQ",
                    rec.time,
                    mid,
                    f"new message pkt#{pid} to {dst} reused sequence bit "
                    f"{seq} (previous message was not acknowledged with "
                    f"an alternation)",
                )
            )
        # A new message on this connection retires the previous one: the
        # alternating-bit protocol guarantees it never transmits again,
        # so its INV-DELTAT verdict is final — keep it only if guilty.
        if live is not None:
            verdict = self._deltat_verdict(mid, dst, live)
            if verdict is not None:
                self._deltat_pending[mid, dst, live.pid] = verdict
            self._forget_live(conn)
        self._deltat_pending.pop((mid, dst, pid), None)
        conn.last_new_seq = seq
        conn.resync_ok = False
        conn.live = _Message(
            pid, seq, rec.time, rec.get("bytes", 0) or 0, rec.get("tid")
        )
        self._live_messages += 1
        self._note_growth()

    def _on_busy_retry(self, rec: TraceRecord) -> None:
        # SODA007 judges the moment the client decides to retry: a hint
        # that lands after that is for the next retry, not this one.
        mid, peer = rec["mid"], rec["peer"]
        conn = self._conns.get((mid, peer))
        if conn is None or conn.busy_hint is None:
            return  # a hint is only ever held for a live message
        earliest, conn.busy_hint = conn.busy_hint, None
        if rec.time < earliest - 1.0:
            self.violations.append(
                InvariantViolation(
                    "SODA007",
                    rec.time,
                    mid,
                    f"BUSY retry of pkt#{conn.live.pid} to {peer} sent "
                    f"{(earliest - rec.time)/1000.0:.1f}ms earlier "
                    f"than the retry hint allowed; clients must "
                    f"honor the decaying-rate hint (§5.2.3)",
                )
            )

    def _deltat_verdict(
        self, mid: int, dst: int, msg: _Message
    ) -> Optional[InvariantViolation]:
        """INV-DELTAT for one message whose last transmission is known."""
        if msg.busy:
            return None  # BUSY retries are unbounded by design
        policy = self._policy_for(mid)
        if msg.count > policy.max_ack_attempts:
            return InvariantViolation(
                "INV-DELTAT",
                msg.last_us,
                mid,
                f"pkt#{msg.pid} to {dst} transmitted {msg.count} "
                f"times; the policy allows at most "
                f"{policy.max_ack_attempts} before declaring "
                f"the peer dead",
            )
        # The policy states its own worst-case window (the same bound
        # deltat_for_policy harmonizes Delta-t's R with), so the check
        # holds for static and adaptive alike.  Kernel-CPU serialization
        # can push a retransmission out a little past its timer; allow a
        # generous margin.
        bound = (
            policy.retry_window_bound_us(msg.count, msg.data_bytes) * 1.5
            + 10_000.0
        )
        span = msg.last_us - msg.first_us
        if span > bound:
            return InvariantViolation(
                "INV-DELTAT",
                msg.last_us,
                mid,
                f"pkt#{msg.pid} to {dst} retransmitted over "
                f"{span/1000.0:.1f}ms ({msg.count} sends); "
                f"Delta-t bounds the window at "
                f"{bound/1000.0:.1f}ms",
            )
        return None

    def _on_delivered(self, rec: TraceRecord) -> None:
        key = (rec["mid"], rec["src"], rec["tid"])
        new = rec["state"]
        old = self._delivered.get(key)
        if new not in _SUCCESSORS.get(old, ()):
            self.violations.append(
                InvariantViolation(
                    "INV-COMPLETE",
                    rec.time,
                    rec["mid"],
                    f"request <{key[1]},{key[2]}> made illegal "
                    f"transition {old!r} -> {new!r}",
                )
            )
        if new in _SUCCESSORS and not _SUCCESSORS[new]:
            # A terminal state: the kernel deletes the record at
            # DONE/CANCELLED; retire the cell (this is the O(open) win
            # for long soaks).
            self._delivered.pop(key, None)
            self._abandoned.discard(key)
        else:
            self._delivered[key] = new
            self._note_growth()

    def _on_gave_up(self, rec: TraceRecord) -> None:
        # A requester that died or gave up never ACKs the ACCEPT that
        # would close its server cell; a COMPLETED one still owes that.
        if not self._delivered or rec.get("status") == "completed":
            return
        src, tid = rec["mid"], rec["tid"]
        for key in self._delivered:
            if key[1] == src and key[2] == tid:
                self._abandoned.add(key)

    #: The rows this sink adds to a ``{category: handlers}`` dispatch
    #: table: everything it reads, nothing else reaches it.
    HANDLERS = {
        "kernel.tx": _on_tx,
        "kernel.rx": _on_rx,
        "conn.busy_retry": _on_busy_retry,
        "conn.peer_dead": _on_peer_dead,
        "conn.seq_swap": _on_seq_swap,
        "kernel.interrupt": _on_handler_entry,
        "kernel.boot_handler": _on_handler_entry,
        "kernel.endhandler": _on_handler_exit,
        "kernel.delivered_state": _on_delivered,
        "kernel.complete": _on_gave_up,
        "kernel.cancelled": _on_gave_up,
        "kernel.crash": _on_reset,
        "kernel.client_reset": _on_reset,
        "kernel.die": _on_reset,
    }

    # -- end of trace ------------------------------------------------------

    def finish(
        self,
        ledger: Optional[CostLedger] = None,
        end_time: float = 0.0,
    ) -> List[InvariantViolation]:
        """Close the stream; returns the full verdict list.  ``end_time``
        (the feeding table's ``end_time``) stamps the end-of-run
        verdicts."""
        if self._finished:
            return self.violations
        self._finished = True
        # INV-DELTAT: pending verdicts of retired messages merged with
        # the still-live ones, sorted by (mid, dst, pid).
        verdicts = dict(self._deltat_pending)
        for (mid, dst), conn in self._conns.items():
            if conn.live is not None:
                verdict = self._deltat_verdict(mid, dst, conn.live)
                if verdict is not None:
                    verdicts[mid, dst, conn.live.pid] = verdict
        self.violations.extend(verdicts[key] for key in sorted(verdicts))
        if self.strict_completion:
            for cell, state in sorted(self._delivered.items()):
                # Only open cells are retained, so every entry the
                # requester still waits on is a leak.
                if cell in self._abandoned:
                    continue
                mid, src, tid = cell
                self.violations.append(
                    InvariantViolation(
                        "INV-COMPLETE",
                        end_time,
                        mid,
                        f"request <{src},{tid}> left in state "
                        f"'{state}' at end of run (never reached "
                        f"DONE/CANCELLED)",
                    )
                )
        if ledger is not None:
            _check_ledger(ledger, end_time, self.violations)
        return self.violations


def _check_ledger(
    ledger: CostLedger, end_time: float, violations: List[InvariantViolation]
) -> None:
    snapshot = ledger.snapshot()
    total = ledger.total()
    if abs(total - sum(snapshot.values())) > 1e-6:
        violations.append(
            InvariantViolation(
                "INV-LEDGER",
                end_time,
                None,
                f"ledger total {total} != sum of per-category "
                f"charges {sum(snapshot.values())}",
            )
        )
    for category, value in sorted(snapshot.items()):
        if category not in CostLedger.CATEGORIES:
            violations.append(
                InvariantViolation(
                    "INV-LEDGER", end_time, None,
                    f"unknown cost category {category!r}",
                )
            )
        if value < 0:
            violations.append(
                InvariantViolation(
                    "INV-LEDGER", end_time, None,
                    f"negative charge {value} in {category!r}",
                )
            )


def check_stream(
    records: Iterable[TraceRecord],
    network=None,
    strict_completion: bool = True,
    ledger: Optional[CostLedger] = None,
) -> List[InvariantViolation]:
    """One-shot check of an already-materialized record sequence."""
    checker = InvariantChecker(
        network=network, strict_completion=strict_completion
    )
    table = SinkTable(checker)
    table.replay(records)
    return checker.finish(ledger=ledger, end_time=table.end_time)


def check_network(
    net, strict_completion: bool = True
) -> List[InvariantViolation]:
    """Check a finished :class:`~repro.core.node.Network` run."""
    return check_stream(
        net.sim.trace.retained(),
        network=net,
        strict_completion=strict_completion,
        ledger=net.ledger,
    )
