"""Streaming invariant checking with O(open-transactions) state.

:class:`~repro.analysis.invariants.InvariantChecker` replays a retained
trace after the run — simple, but its memory is the whole trace plus a
``_PidState`` for every sequenced message ever sent, so a soak run must
retain millions of records just to be checked.  This module re-derives
the *same verdicts* from a single forward pass that retires state as
transactions close:

* a message's send-direction state (``_PidState``) is retired the moment
  a *new* message starts on its connection — the alternating-bit
  protocol guarantees the old one will never transmit again, so its
  INV-DELTAT verdict is already decided (``retry_window_bound_us`` is a
  pure function of the policy knobs, not of run state, so evaluating at
  retirement equals evaluating at end of run); only the verdicts of the
  rare *dirty* messages are kept, not the state of every clean one;
* a delivered-request cell is retired on reaching a terminal state
  (DONE/CANCELLED) — the kernel deletes its record then, so no further
  transition can reference it;
* BUSY NACKs, peer-death, sequence swaps, crashes and resets clear
  retained state exactly where the batch checker clears (or later
  skips) it.

Peak retained state is therefore proportional to *open* work — live
messages, undecided delivered requests, pending verdicts — not to trace
length.  ``python -m repro bench analysis`` measures the ratio.

**Equivalence contract.**  On any trace a SODA kernel can emit, verdicts
are identical to the batch checker's, list order included
(``tests/test_chaos.py`` proves it across the full chaos matrix, and
``tests/analysis/test_streaming_checker.py`` on the gate cells and a
soak).  Hand-built traces that violate kernel guarantees — a retired
message transmitting again, a delivered cell written after its terminal
state — are outside the contract: the batch checker still has the
retired state to compare against and the streaming checker, by design,
does not.  Feed pathological traces to the batch checker.

The checker is also a live :class:`~repro.sim.tracing.Tracer` sink
(:meth:`IncrementalChecker.install`): attach it before a run and the
trace need not be retained at all (``keep_records=False``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.invariants import (
    _TERMINAL,
    _TRANSITIONS,
    InvariantChecker,
    InvariantViolation,
    _PidState,
    _SendState,
)
from repro.sim.tracing import CostLedger, TraceRecord
from repro.transport.retransmit import RetransmitPolicy


class _ConnState:
    """Send-direction state of one (sender, peer) pair — at most one
    live message, unlike the batch checker's ever-growing pid map."""

    __slots__ = ("last_new_seq", "resync_ok", "live_pid", "live", "busy_hint")

    def __init__(self) -> None:
        self.last_new_seq: Optional[int] = None
        self.resync_ok: bool = False
        self.live_pid: Optional[int] = None
        self.live: Optional[_PidState] = None
        #: SODA007: earliest allowed next transmission of the live pid.
        self.busy_hint: Optional[float] = None


class IncrementalChecker:
    """One-pass invariant checker; mirrors ``InvariantChecker`` verdicts.

    Feed records with :meth:`feed` (or attach via :meth:`install`), then
    call :meth:`finish` once for the end-of-trace verdicts.  Violations
    detectable mid-stream (INV-SEQ, INV-HANDLER, illegal transitions,
    SODA007) are appended to :attr:`violations` as they happen.
    """

    def __init__(
        self,
        network=None,
        strict_completion: bool = True,
        policy: Optional[RetransmitPolicy] = None,
    ) -> None:
        #: Composed batch checker: reused for policy lookup, INV-DELTAT
        #: evaluation and the ledger audit, so the two implementations
        #: cannot drift apart on shared logic.
        self._batch = InvariantChecker(
            network=network, strict_completion=strict_completion, policy=policy
        )
        self.strict_completion = strict_completion
        self.violations: List[InvariantViolation] = []
        self._conns: Dict[Tuple[int, int], _ConnState] = {}
        #: Verdicts of retired dirty messages: (mid, dst) -> pid -> violation.
        self._deltat_pending: Dict[
            Tuple[int, int], Dict[int, InvariantViolation]
        ] = {}
        #: Open (non-terminal) delivered-request cells only.
        self._delivered: Dict[Tuple[int, int, int], str] = {}
        self._handler_depth: Dict[int, int] = {}
        self._end_time = 0.0
        self._finished = False
        #: Streaming stats (exported via repro.obs analysis.* counters).
        self.records_checked = 0
        self.peak_open_state = 0

    # -- state accounting --------------------------------------------------

    def open_state(self) -> int:
        """Retained stateful entries right now: live messages, pending
        verdicts, open delivered cells."""
        return (
            sum(1 for conn in self._conns.values() if conn.live is not None)
            + sum(len(pids) for pids in self._deltat_pending.values())
            + len(self._delivered)
        )

    def _note_state(self) -> None:
        open_now = self.open_state()
        if open_now > self.peak_open_state:
            self.peak_open_state = open_now

    # -- streaming ---------------------------------------------------------

    def install(self, net) -> "IncrementalChecker":
        """Attach as a live sink on ``net``'s tracer; returns self."""
        net.sim.trace.add_sink(self.feed)
        return self

    def feed(self, rec: TraceRecord) -> None:
        """Consume one trace record."""
        if self._finished:
            raise RuntimeError("IncrementalChecker already finished")
        self.records_checked += 1
        if rec.time > self._end_time:
            self._end_time = rec.time
        category = rec.category
        if category == "kernel.tx":
            self._on_tx(rec)
        elif category == "kernel.rx":
            if rec.get("nack") == "busy":
                self._on_busy(rec)
        elif category == "conn.peer_dead":
            conn = self._conns.get((rec["mid"], rec["peer"]))
            if conn is not None:
                conn.resync_ok = True
                conn.busy_hint = None
        elif category == "conn.seq_swap":
            conn = self._conns.get((rec["mid"], rec["peer"]))
            if conn is not None:
                parked = rec["parked_pid"]
                if conn.live_pid == parked:
                    conn.live_pid = None
                    conn.live = None
                    conn.busy_hint = None
                self._deltat_pending.get(
                    (rec["mid"], rec["peer"]), {}
                ).pop(parked, None)
                conn.resync_ok = True
        elif category == "kernel.interrupt":
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
        elif category == "kernel.endhandler":
            mid = rec["mid"]
            self._handler_depth[mid] = max(
                0, self._handler_depth.get(mid, 0) - 1
            )
        elif category == "kernel.delivered_state":
            self._on_delivered(rec)
        elif category in ("kernel.crash", "kernel.client_reset", "kernel.die"):
            mid = rec["mid"]
            self._handler_depth[mid] = 0
            for key in [k for k in self._delivered if k[0] == mid]:
                del self._delivered[key]
            if category == "kernel.crash":
                for key in [k for k in self._conns if k[0] == mid]:
                    del self._conns[key]
                for key in [k for k in self._deltat_pending if k[0] == mid]:
                    del self._deltat_pending[key]
        self._note_state()

    # -- per-category handlers ---------------------------------------------

    def _on_busy(self, rec: TraceRecord) -> None:
        key = (rec["mid"], rec["src"])
        conn = self._conns.get(key)
        if conn is None:
            return
        conn.resync_ok = True
        # The batch checker marks *every* message of this connection
        # busy, which at finalize skips their INV-DELTAT verdicts —
        # including verdicts of already-retired messages.  Withdraw them.
        self._deltat_pending.pop(key, None)
        if conn.live is not None:
            conn.live.busy = True
            hint = rec.get("hint")
            if (
                hint is not None
                and conn.live.tid is not None
                and conn.live.tid == rec.get("tid")
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
        conn = self._conns.setdefault((mid, dst), _ConnState())
        if conn.live_pid == pid:
            ps = conn.live
            assert ps is not None
            if seq != ps.seq:
                self.violations.append(
                    InvariantViolation(
                        "INV-SEQ",
                        rec.time,
                        mid,
                        f"retransmission of pkt#{pid} to {dst} changed "
                        f"its sequence bit {ps.seq} -> {seq}",
                    )
                )
            earliest = conn.busy_hint
            conn.busy_hint = None
            if earliest is not None and rec.time < earliest - 1.0:
                self.violations.append(
                    InvariantViolation(
                        "SODA007",
                        rec.time,
                        mid,
                        f"BUSY retry of pkt#{pid} to {dst} sent "
                        f"{(earliest - rec.time)/1000.0:.1f}ms earlier "
                        f"than the retry hint allowed; clients must "
                        f"honor the decaying-rate hint (§5.2.3)",
                    )
                )
            ps.count += 1
            ps.last_us = rec.time
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
        self._retire_live(mid, dst, conn)
        conn.last_new_seq = seq
        conn.resync_ok = False
        conn.live_pid = pid
        conn.live = _PidState(
            seq=seq,
            first_us=rec.time,
            last_us=rec.time,
            data_bytes=rec.get("bytes", 0) or 0,
            tid=rec.get("tid"),
        )
        conn.busy_hint = None
        self._deltat_pending.get((mid, dst), {}).pop(pid, None)

    def _retire_live(self, mid: int, dst: int, conn: _ConnState) -> None:
        if conn.live is None or conn.live_pid is None:
            return
        verdict = self._deltat_verdict(mid, dst, conn.live_pid, conn.live)
        if verdict is not None:
            self._deltat_pending.setdefault((mid, dst), {})[
                conn.live_pid
            ] = verdict
        conn.live_pid = None
        conn.live = None
        conn.busy_hint = None

    def _deltat_verdict(
        self, mid: int, dst: int, pid: int, ps: _PidState
    ) -> Optional[InvariantViolation]:
        """Exactly ``InvariantChecker._finalize_pids`` for one message."""
        sink: List[InvariantViolation] = []
        self._batch._finalize_pids(
            {(mid, dst): _single_pid_state(pid, ps)}, sink
        )
        return sink[0] if sink else None

    def _on_delivered(self, rec: TraceRecord) -> None:
        key = (rec["mid"], rec["src"], rec["tid"])
        new = rec["state"]
        old = self._delivered.get(key)
        allowed = _TRANSITIONS.get(old, set())
        if new not in allowed:
            self.violations.append(
                InvariantViolation(
                    "INV-COMPLETE",
                    rec.time,
                    rec["mid"],
                    f"request <{key[1]},{key[2]}> made illegal "
                    f"transition {old!r} -> {new!r}",
                )
            )
        if new in _TERMINAL:
            # The kernel deletes the record at DONE/CANCELLED; retire
            # the cell (this is the O(open) win for long soaks).
            self._delivered.pop(key, None)
        else:
            self._delivered[key] = new

    # -- end of trace ------------------------------------------------------

    def finish(
        self, ledger: Optional[CostLedger] = None
    ) -> List[InvariantViolation]:
        """Close the stream; returns the full verdict list (same order
        as ``InvariantChecker.check``)."""
        if self._finished:
            return self.violations
        self._finished = True
        # INV-DELTAT: pending verdicts of retired messages merged with
        # the still-live ones, in the batch order — connections sorted
        # by (mid, dst), messages by pid within each.
        keys = set(self._deltat_pending) | set(self._conns)
        for mid, dst in sorted(keys):
            per_pid: Dict[int, InvariantViolation] = dict(
                self._deltat_pending.get((mid, dst), {})
            )
            conn = self._conns.get((mid, dst))
            if (
                conn is not None
                and conn.live is not None
                and conn.live_pid is not None
            ):
                verdict = self._deltat_verdict(
                    mid, dst, conn.live_pid, conn.live
                )
                if verdict is not None:
                    per_pid[conn.live_pid] = verdict
            for pid in sorted(per_pid):
                self.violations.append(per_pid[pid])
        if self.strict_completion:
            for (mid, src, tid), state in sorted(self._delivered.items()):
                # Only open cells are retained, so every entry is a leak.
                self.violations.append(
                    InvariantViolation(
                        "INV-COMPLETE",
                        self._end_time,
                        mid,
                        f"request <{src},{tid}> left in state "
                        f"'{state}' at end of run (never reached "
                        f"DONE/CANCELLED)",
                    )
                )
        if ledger is not None:
            self._batch._check_ledger(ledger, self._end_time, self.violations)
        return self.violations


def _single_pid_state(pid: int, ps: _PidState) -> _SendState:
    """A one-entry send map shaped for ``_finalize_pids``."""
    state = _SendState()
    state.pids[pid] = ps
    return state


def check_stream(
    records: Iterable[TraceRecord],
    network=None,
    strict_completion: bool = True,
    ledger: Optional[CostLedger] = None,
) -> List[InvariantViolation]:
    """One-shot streaming check of an already-materialized record
    sequence (the drop-in counterpart of ``check_network``)."""
    checker = IncrementalChecker(
        network=network, strict_completion=strict_completion
    )
    for rec in records:
        checker.feed(rec)
    return checker.finish(ledger=ledger)
