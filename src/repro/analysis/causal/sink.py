"""The causal engine as one record sink: vector clocks (happens-before),
the race rules SODA010-SODA012 and the late-rx rule SODA014.
docs/ANALYSIS.md ("Causal analysis") has the clock model and the rule
table.

**Clocks.**  Every record naming a node (``mid`` ≥ 0) is an event of
that node's current process ``(mid, epoch)``, ordered by program order
and by send/receive edges (a ``kernel.rx`` joins the clock its
``kernel.tx`` carried, matched by NIC frame id).  A node's component is
allocated when the node is first seen and a shorter clock counts as
zero-padded; no output prints a clock, only relations, so slot order
does not show.  Each diagnostic's witness names two records,
clock-annotated; ``#index`` is a record's position in the stream.

**Retirement.**  A transaction is judged and dropped at its requester's
terminal record (``kernel.complete`` / ``kernel.cancelled``), except
that a COMPLETED non-DISCOVER one whose delivery has not been seen waits
for it; a delivered cell is dropped at ``done`` / ``cancelled``, and of
crashes only the last per node is kept.  A unicast frame's clock is
dropped at its rx; every frame's, broadcast or lost, once the stream
passes its ``kernel.tx`` time plus Delta-t's maximum packet lifetime
(``mpl_us``, §5.2.2: no frame lives longer).  An rx after that draws no
edge and counts in ``late_rx``; :meth:`CausalSink.finish` reports any as
one SODA014 transport violation (DESIGN.md §12.3).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.net.frame import BROADCAST_MID
from repro.sim.tracing import TRACE_SCHEMA, SinkTable, TraceRecord

#: Connection-record categories that prove *send-direction* activity —
#: each requires an outstanding message, which requires a prior
#: ``kernel.tx`` (a rx-side record like ``conn.resync`` does not).
_CONN_SEND_CATEGORIES = (
    "conn.retransmit", "conn.busy_retry", "conn.acked", "conn.peer_dead",
    "conn.seq_swap", "conn.spurious_retransmit",
)


class Event(NamedTuple):
    """One stamped record: its place in the stream and its clock
    (``None`` for a record naming no node)."""

    index: int
    time: float
    category: str
    mid: Optional[int]
    epoch: Optional[int]
    clock: Optional[Tuple[int, ...]]

    def describe(self) -> str:
        """A witness line: record index, time, category, process."""
        where = "-" if self.clock is None else f"mid={self.mid}/e{self.epoch}"
        return (
            f"#{self.index} t={self.time / 1000.0:.3f}ms {self.category} "
            f"[{where}]"
        )


def happens_before(a: Event, b: Event) -> bool:
    """True iff event ``a`` is in event ``b``'s causal past."""
    x, y = a.clock, b.clock
    if x is None or y is None:
        return False
    width = max(len(x), len(y))
    x += (0,) * (width - len(x))
    y += (0,) * (width - len(y))
    return x != y and all(i <= j for i, j in zip(x, y))


def concurrent(a: Event, b: Event) -> bool:
    """True iff both events are clocked and neither precedes the other."""
    return a.clock is not None and b.clock is not None and not (
        happens_before(a, b) or happens_before(b, a)
    )


@dataclass(frozen=True)
class CausalDiagnostic:
    """One causal rule violation, anchored to a witness pair."""

    rule_id: str
    time: float
    mid: Optional[int]
    message: str
    #: Formatted references to the (at most two) trace records whose
    #: ordering proves the violation.
    witness: Tuple[str, ...] = ()

    def format(self) -> str:
        where = f"mid={self.mid}" if self.mid is not None else "-"
        text = (
            f"t={self.time / 1000.0:.3f}ms {self.rule_id} [{where}] "
            f"{self.message}"
        )
        if self.witness:
            text += " (witness: " + " | ".join(self.witness) + ")"
        return text

    def __str__(self) -> str:
        return self.format()


@dataclass
class _Txn:
    """One open transaction, keyed <requester mid, tid>."""

    request: Optional[Event] = None
    delivered: Optional[Event] = None
    complete: Optional[Event] = None
    status: Optional[str] = None
    #: Requester epoch at the last REQUEST / the last completion.
    issue: Optional[int] = None
    finish: Optional[int] = None
    #: Requester resets seen before the first REQUEST.
    resets: int = 0
    discover: bool = False


class CausalSink:
    """Vector clocks, SODA010-012 and SODA014, one record at a time."""

    def __init__(self, mpl_us: float = math.inf) -> None:
        #: Maximum packet lifetime: how long a frame's clock is kept.
        #: Pass the network's ``config.deltat.mpl_us``.
        self.mpl_us = mpl_us
        #: Records stamped so far (the next record's ``#index``).
        self.records = 0
        self.clocks_allocated = 0
        #: rx events that inherited a tx clock through a frame id.
        self.send_edges = 0
        #: rx events whose frame id had no recorded tx: no edge drawn.
        self.unmatched_rx = 0
        #: rx events more than ``mpl_us`` after their tx: no edge drawn.
        self.late_rx = 0
        #: (time, mid) of the first late rx, until SODA014 reports it.
        self._first_late: Optional[Tuple[float, int]] = None
        self._procs: Set[Tuple[int, int]] = set()
        self._slot: Dict[int, int] = {}
        self._clock: Dict[int, List[int]] = {}
        self._epoch: Dict[int, int] = {}
        #: fid -> (sender clock snapshot, broadcast?) of frames in flight.
        self._frames: Dict[int, Tuple[Tuple[int, ...], bool]] = {}
        #: (expiry, sender, fid) of every recorded tx, in stream order.
        self._lifetimes: Deque[Tuple[float, int, int]] = deque()
        #: sender -> its highest fid whose lifetime has ended (a
        #: sender's fids rise with its tx times).
        self._expired: Dict[int, int] = {}
        self._txns: Dict[Tuple[int, int], _Txn] = {}
        #: per mid: its reset events, in trace order.
        self._resets: Dict[int, List[Event]] = {}
        #: per mid: its last crash event.
        self._crash: Dict[int, Event] = {}
        #: open delivered cell -> its node's reset count at the last write.
        self._cells: Dict[Tuple[int, int, int], int] = {}
        #: last kernel.tx index per (mid, dst).
        self._last_tx: Dict[Tuple[int, int], int] = {}
        #: advertisement table: (mid, pattern) -> epoch of last advertise.
        self._adtable: Dict[Tuple[int, int], int] = {}
        self._diagnostics: List[CausalDiagnostic] = []

    @property
    def processes(self) -> List[Tuple[int, int]]:
        return sorted(self._procs)

    # -- clocks ------------------------------------------------------------

    def stamp(self, rec: TraceRecord) -> Event:
        """Tick the clock of ``rec``'s node and return its event."""
        index = self.records
        self.records = index + 1
        mid = rec.get("mid")
        category = rec.category
        if mid is None or mid < 0:
            return Event(index, rec.time, category, mid, None, None)
        clock = self._clock.get(mid)
        if clock is None:
            slot = self._slot[mid] = len(self._slot)
            clock = self._clock[mid] = [0] * (slot + 1)
            self._epoch[mid] = 0
        if category == "kernel.client_reset":
            # The reset record is the first event of the new incarnation
            # (the kernel bumps its epoch before emitting it).
            self._epoch[mid] = rec.get("epoch", self._epoch[mid] + 1)
        clock[self._slot[mid]] += 1
        if category == "kernel.rx":
            fid = rec.get("fid")
            self._expire(rec.time)
            entry = self._frames.get(fid)
            if entry is not None:
                snapshot, broadcast = entry
                clock.extend([0] * (len(snapshot) - len(clock)))
                for k, component in enumerate(snapshot):
                    if component > clock[k]:
                        clock[k] = component
                self.send_edges += 1
                if not broadcast:
                    del self._frames[fid]
            elif fid is not None:
                if fid <= self._expired.get(rec.get("src"), 0):
                    if not self.late_rx:
                        self._first_late = (rec.time, mid)
                    self.late_rx += 1
                else:
                    self.unmatched_rx += 1
        snapshot = tuple(clock)
        if category == "kernel.tx":
            fid = rec.get("fid")
            if fid is not None:
                self._expire(rec.time)
                self._frames[fid] = (snapshot, rec.get("dst") == BROADCAST_MID)
                if self.mpl_us < math.inf:
                    self._lifetimes.append((rec.time + self.mpl_us, mid, fid))
        epoch = self._epoch[mid]
        self.clocks_allocated += 1
        self._procs.add((mid, epoch))
        return Event(index, rec.time, category, mid, epoch, snapshot)

    def _expire(self, now: float) -> None:
        """Drop the clocks of frames whose lifetime ended before ``now``."""
        lifetimes = self._lifetimes
        while lifetimes and lifetimes[0][0] < now:
            _expiry, sender, fid = lifetimes.popleft()
            self._frames.pop(fid, None)
            self._expired[sender] = fid

    # -- SODA010 / SODA011: per transaction ---------------------------------

    def _on_request(self, rec: TraceRecord) -> None:
        event = self.stamp(rec)
        mid = rec.get("mid")
        txn = self._txns.setdefault((mid, rec["tid"]), _Txn())
        if txn.request is None:
            txn.request = event
            txn.resets = len(self._resets.get(mid, ()))
            txn.discover = rec.get("dst", 0) < 0
        txn.issue = self._epoch.get(mid, 0)

    def _on_complete(self, rec: TraceRecord) -> None:
        event = self.stamp(rec)
        mid = rec.get("mid")
        key = (mid, rec["tid"])
        txn = self._txns.setdefault(key, _Txn())
        if txn.complete is None:
            txn.complete = event
            txn.status = rec.get("status")
        txn.finish = self._epoch.get(mid, 0)
        waits = txn.status == "completed" and not txn.discover
        if txn.delivered is not None or not waits:
            self._retire(key, txn)

    def _on_cancelled(self, rec: TraceRecord) -> None:
        self.stamp(rec)
        key = (rec.get("mid"), rec["tid"])
        txn = self._txns.get(key)
        if txn is not None:
            self._retire(key, txn)

    def _retire(self, key: Tuple[int, int], txn: _Txn) -> None:
        del self._txns[key]
        req_mid, tid = key
        request, delivered, complete = txn.request, txn.delivered, txn.complete
        completed = complete is not None and txn.status == "completed"
        if delivered is not None:
            if request is not None and not happens_before(request, delivered):
                self._flag(
                    "SODA010", delivered, delivered.mid,
                    f"REQUEST <{req_mid},{tid}> was delivered at the "
                    f"server without the issuing REQUEST in its causal "
                    f"past — the delivery cannot have been caused by the "
                    f"request it claims",
                    request,
                )
            if completed and not happens_before(delivered, complete):
                self._flag(
                    "SODA010", complete, complete.mid,
                    f"REQUEST <{req_mid},{tid}> completed COMPLETED "
                    f"without its delivery in the completion's causal "
                    f"past — the reply arrived before (or concurrently "
                    f"with) its own cause",
                    delivered,
                )
        issue, finish = txn.issue, txn.finish
        if completed and issue is not None and finish not in (None, issue):
            resets = self._resets.get(req_mid, ())
            if len(resets) > txn.resets and (
                resets[txn.resets].index < complete.index
            ):
                first = resets[txn.resets]
            else:
                first = request if request.index else complete
            self._flag(
                "SODA011", complete, req_mid,
                f"REQUEST <{req_mid},{tid}> was issued by incarnation "
                f"e{issue} but completed COMPLETED in e{finish} — a stale "
                f"ACCEPT crossed the requester's reset and resurrected a "
                f"dead transaction (§3.6.1 tid watermark violated)",
                first,
            )

    # -- SODA012: shared state across a boundary ----------------------------

    def _on_delivered_state(self, rec: TraceRecord) -> None:
        event = self.stamp(rec)
        mid, src, tid, state = rec["mid"], rec["src"], rec["tid"], rec["state"]
        cell = (mid, src, tid)
        resets = self._resets.get(mid, ())
        if state == "delivered":
            txn = self._txns.setdefault((src, tid), _Txn())
            if txn.delivered is None:
                txn.delivered = event
                if txn.complete is not None:  # the wait is over
                    self._retire((src, tid), txn)
        else:
            written = self._cells.get(cell)
            if written is not None and len(resets) > written:
                self._flag(
                    "SODA012", event, mid,
                    f"delivered cell <{src},{tid}> advanced to '{state}' "
                    f"across mid {mid}'s incarnation boundary — the "
                    f"write's cause predates the reset that wiped the cell",
                    resets[written],
                )
        if state in ("done", "cancelled"):
            self._cells.pop(cell, None)
        else:
            self._cells[cell] = len(resets)

    def _on_reset(self, rec: TraceRecord) -> None:
        event = self.stamp(rec)
        self._resets.setdefault(rec.get("mid"), []).append(event)

    def _on_crash(self, rec: TraceRecord) -> None:
        self._crash[rec.get("mid")] = self.stamp(rec)

    def _on_tx(self, rec: TraceRecord) -> None:
        event = self.stamp(rec)
        dst = rec.get("dst")
        if dst is not None and dst >= 0:
            self._last_tx[(rec.get("mid"), dst)] = event.index

    def _on_conn_send(self, rec: TraceRecord) -> None:
        event = self.stamp(rec)
        mid, peer = rec.get("mid"), rec.get("peer")
        crash = self._crash.get(mid)
        if peer is None or crash is None:
            return
        sent = self._last_tx.get((mid, peer))
        if sent is None or sent < crash.index:
            self._flag(
                "SODA012", event, mid,
                f"connection record {mid}->{peer} shows send-direction "
                f"activity ({rec.category}) after mid {mid}'s power "
                f"failure with no fresh transmission — state of the dead "
                f"incarnation raced the crash",
                crash,
            )
            # One finding per resurrected connection per crash.
            self._last_tx[(mid, peer)] = event.index

    def _on_advertise(self, rec: TraceRecord) -> None:
        self.stamp(rec)
        mid = rec.get("mid")
        self._adtable[(mid, rec["pattern"])] = self._epoch.get(mid, 0)

    def _on_unadvertise(self, rec: TraceRecord) -> None:
        event = self.stamp(rec)
        mid = rec.get("mid")
        key, epoch = (mid, rec["pattern"]), self._epoch.get(mid, 0)
        owner = self._adtable.get(key)
        if owner is None or owner == epoch:
            return
        resets = self._resets.get(mid)
        if resets:
            self._flag(
                "SODA012", event, mid,
                f"advertisement-table entry for pattern "
                f"{rec['pattern']:#x} unadvertised by incarnation "
                f"e{epoch} but advertised by e{owner} — the reset wiped "
                f"the table between the two writes",
                resets[-1],
            )
        self._adtable[key] = epoch

    def _flag(
        self, rule_id: str, event: Event, mid: Optional[int], message: str,
        first: Event,
    ) -> None:
        witness = (first.describe(), event.describe())
        if concurrent(first, event):
            witness += ("clock-concurrent",)
        elif happens_before(event, first):
            witness += ("clock-inverted",)
        self._diagnostics.append(
            CausalDiagnostic(rule_id, event.time, mid, message, witness)
        )

    #: Every :data:`~repro.sim.tracing.TRACE_SCHEMA` category stamps, so
    #: ``#index`` counts what the table feeds; the rules add their rows.
    HANDLERS = {
        **dict.fromkeys(TRACE_SCHEMA, stamp),
        **dict.fromkeys(_CONN_SEND_CATEGORIES, _on_conn_send),
        "kernel.request": _on_request,
        "kernel.complete": _on_complete,
        "kernel.cancelled": _on_cancelled,
        "kernel.delivered_state": _on_delivered_state,
        "kernel.client_reset": _on_reset,
        "kernel.crash": _on_crash,
        "kernel.tx": _on_tx,
        "kernel.advertise": _on_advertise,
        "kernel.unadvertise": _on_unadvertise,
    }

    def finish(self) -> List[CausalDiagnostic]:
        """SODA010-012, every transaction still open judged now, and
        SODA014 if any rx was late, in a deterministic order.  SODA013
        reads spans, not records:
        :func:`~repro.analysis.causal.waitfor.detect_deadlocks`."""
        for key, txn in list(self._txns.items()):
            self._retire(key, txn)
        if self._first_late is not None:
            self._diagnostics.append(CausalDiagnostic(
                "SODA014", *self._first_late,
                f"{self.late_rx} rx record(s) arrived more than Delta-t's "
                f"maximum packet lifetime ({self.mpl_us / 1000.0:.0f}ms) "
                f"after their tx: the transport broke §5.2.2's bound",
            ))
            self._first_late = None
        self._diagnostics.sort(
            key=lambda d: (d.time, d.rule_id, d.mid or -1, d.message)
        )
        return self._diagnostics


def build_causal_order(records) -> CausalSink:
    """Replay ``records`` through a fresh :class:`CausalSink`."""
    sink = CausalSink()
    SinkTable(sink).replay(records)
    return sink
