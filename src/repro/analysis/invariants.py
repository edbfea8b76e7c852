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
  leak.
* **INV-LEDGER** — the cost ledger's total equals the sum of the
  per-category charges, categories are known, and no charge is negative.
* **SODA007** — BUSY retry earlier than hinted: when a BUSY NACK
  carries an explicit retry hint (the overload controller's widened
  decaying-rate hint, §5.2.3 + ISSUE 5), the client must not
  retransmit the nacked message before the hinted delay has elapsed.
  The rule binds a client only to hints that actually *reached* it
  (the ``hint`` field on its own ``kernel.rx`` record), and a priority
  swap (§5.2.3) releases the parked message from the constraint.

The checker consumes the extra record fields the kernel emits for it
(``seq``/``pid``/``ack``/``nack`` on ``kernel.tx``/``kernel.rx``,
``kernel.endhandler``, ``kernel.delivered_state``,
``kernel.client_reset``); traces captured with ``keep_records=False``
cannot be checked.  Ring-buffer traces that dropped records
(``trace.truncated``) cannot be replayed either, but
:func:`check_network_degraded` still audits what survives truncation:
record counters, live kernel state, and the cost ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.tracing import CostLedger, Tracer
from repro.transport.retransmit import RetransmitPolicy

#: Delivered-request states considered terminal.
_TERMINAL = frozenset({"done", "cancelled"})

#: Legal delivered-state transitions (server side, §3.3.2).
_TRANSITIONS = {
    None: {"delivered"},
    "delivered": {"accepted", "cancelled", "done"},
    "accepted": {"done", "cancelled"},
    "done": set(),
    "cancelled": set(),
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


@dataclass
class _PidState:
    seq: int
    first_us: float
    last_us: float
    count: int = 1
    data_bytes: int = 0
    busy: bool = False
    tid: Optional[int] = None


@dataclass
class _SendState:
    """Send-direction tracking for one (sender, peer) pair."""

    last_new_seq: Optional[int] = None
    #: A BUSY NACK or dead-peer declaration since the last new message
    #: legitimizes a non-flipping sequence bit on the next one.
    resync_ok: bool = False
    pids: Dict[int, _PidState] = field(default_factory=dict)
    #: SODA007: pid -> earliest time its next transmission may occur,
    #: set when a BUSY NACK carrying an explicit retry hint arrives.
    busy_hint: Dict[int, float] = field(default_factory=dict)


class InvariantChecker:
    """Replays one trace and collects violations."""

    def __init__(
        self,
        network=None,
        strict_completion: bool = True,
        policy: Optional[RetransmitPolicy] = None,
    ) -> None:
        self.network = network
        self.strict_completion = strict_completion
        self._default_policy = policy or RetransmitPolicy()

    # ------------------------------------------------------------------

    def _policy_for(self, mid: int) -> RetransmitPolicy:
        if self.network is not None:
            node = self.network.nodes.get(mid)
            if node is not None:
                return node.kernel.config.retransmit
        return self._default_policy

    def check(
        self, trace: Tracer, ledger: Optional[CostLedger] = None
    ) -> List[InvariantViolation]:
        violations: List[InvariantViolation] = []
        send: Dict[Tuple[int, int], _SendState] = {}
        handler_depth: Dict[int, int] = {}
        delivered: Dict[Tuple[int, int, int], str] = {}
        end_time = 0.0

        for rec in trace.records:
            end_time = max(end_time, rec.time)
            category = rec.category
            if category == "kernel.tx":
                self._on_tx(rec, send, violations)
            elif category == "kernel.rx":
                if rec.get("nack") == "busy":
                    state = send.get((rec["mid"], rec["src"]))
                    if state is not None:
                        state.resync_ok = True
                        hint = rec.get("hint")
                        for pid, pid_state in state.pids.items():
                            pid_state.busy = True
                            # SODA007: the hinted delay binds the nacked
                            # message (matched by tid) from the moment
                            # the hint reached this client.
                            if (
                                hint is not None
                                and pid_state.tid is not None
                                and pid_state.tid == rec.get("tid")
                            ):
                                state.busy_hint[pid] = rec.time + hint
            elif category == "conn.peer_dead":
                state = send.get((rec["mid"], rec["peer"]))
                if state is not None:
                    state.resync_ok = True
                    state.busy_hint.clear()
            elif category == "conn.seq_swap":
                # A priority message displaced a BUSY-parked one
                # (§5.2.3): the parked message's next transmission is a
                # fresh send with a new bit, and the taker reuses the
                # parked one's bit.
                state = send.get((rec["mid"], rec["peer"]))
                if state is not None:
                    state.pids.pop(rec["parked_pid"], None)
                    state.busy_hint.pop(rec["parked_pid"], None)
                    state.resync_ok = True
            elif category == "kernel.interrupt":
                mid = rec["mid"]
                depth = handler_depth.get(mid, 0) + 1
                handler_depth[mid] = depth
                if depth > 1:
                    violations.append(
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
                handler_depth[mid] = max(0, handler_depth.get(mid, 0) - 1)
            elif category == "kernel.delivered_state":
                self._on_delivered(rec, delivered, violations)
            elif category in ("kernel.crash", "kernel.client_reset", "kernel.die"):
                mid = rec["mid"]
                handler_depth[mid] = 0
                for key in [k for k in delivered if k[0] == mid]:
                    del delivered[key]
                if category == "kernel.crash":
                    for key in [k for k in send if k[0] == mid]:
                        del send[key]

        self._finalize_pids(send, violations)
        if self.strict_completion:
            for (mid, src, tid), state in sorted(delivered.items()):
                if state not in _TERMINAL:
                    violations.append(
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
            self._check_ledger(ledger, end_time, violations)
        return violations

    # ------------------------------------------------------------------

    def _on_tx(
        self,
        rec,
        send: Dict[Tuple[int, int], _SendState],
        violations: List[InvariantViolation],
    ) -> None:
        seq = rec.get("seq")
        pid = rec.get("pid")
        if seq is None or pid is None:
            return  # unsequenced traffic (acks, probes, discover, ...)
        mid, dst = rec["mid"], rec["dst"]
        if seq not in (0, 1):
            violations.append(
                InvariantViolation(
                    "INV-SEQ", rec.time, mid,
                    f"sequence bit {seq!r} is not alternating-bit",
                )
            )
            return
        state = send.setdefault((mid, dst), _SendState())
        pid_state = state.pids.get(pid)
        if pid_state is not None:
            if seq != pid_state.seq:
                violations.append(
                    InvariantViolation(
                        "INV-SEQ",
                        rec.time,
                        mid,
                        f"retransmission of pkt#{pid} to {dst} changed "
                        f"its sequence bit {pid_state.seq} -> {seq}",
                    )
                )
            earliest = state.busy_hint.pop(pid, None)
            if earliest is not None and rec.time < earliest - 1.0:
                violations.append(
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
            pid_state.count += 1
            pid_state.last_us = rec.time
            return
        if (
            state.last_new_seq is not None
            and not state.resync_ok
            and seq != 1 - state.last_new_seq
        ):
            violations.append(
                InvariantViolation(
                    "INV-SEQ",
                    rec.time,
                    mid,
                    f"new message pkt#{pid} to {dst} reused sequence bit "
                    f"{seq} (previous message was not acknowledged with "
                    f"an alternation)",
                )
            )
        state.last_new_seq = seq
        state.resync_ok = False
        state.pids[pid] = _PidState(
            seq=seq,
            first_us=rec.time,
            last_us=rec.time,
            data_bytes=rec.get("bytes", 0) or 0,
            tid=rec.get("tid"),
        )

    def _finalize_pids(
        self,
        send: Dict[Tuple[int, int], _SendState],
        violations: List[InvariantViolation],
    ) -> None:
        for (mid, dst), state in sorted(send.items()):
            policy = self._policy_for(mid)
            for pid, ps in sorted(state.pids.items()):
                if ps.busy:
                    continue  # BUSY retries are unbounded by design
                if ps.count > policy.max_ack_attempts:
                    violations.append(
                        InvariantViolation(
                            "INV-DELTAT",
                            ps.last_us,
                            mid,
                            f"pkt#{pid} to {dst} transmitted {ps.count} "
                            f"times; the policy allows at most "
                            f"{policy.max_ack_attempts} before declaring "
                            f"the peer dead",
                        )
                    )
                    continue
                # The policy states its own worst-case window (the same
                # bound deltat_for_policy harmonizes Delta-t's R with),
                # so the check holds for static and adaptive alike.
                # Kernel-CPU serialization can push a retransmission out
                # a little past its timer; allow a generous margin.
                bound = (
                    policy.retry_window_bound_us(ps.count, ps.data_bytes)
                    * 1.5
                    + 10_000.0
                )
                span = ps.last_us - ps.first_us
                if span > bound:
                    violations.append(
                        InvariantViolation(
                            "INV-DELTAT",
                            ps.last_us,
                            mid,
                            f"pkt#{pid} to {dst} retransmitted over "
                            f"{span/1000.0:.1f}ms ({ps.count} sends); "
                            f"Delta-t bounds the window at "
                            f"{bound/1000.0:.1f}ms",
                        )
                    )

    def _on_delivered(
        self,
        rec,
        delivered: Dict[Tuple[int, int, int], str],
        violations: List[InvariantViolation],
    ) -> None:
        key = (rec["mid"], rec["src"], rec["tid"])
        new = rec["state"]
        old = delivered.get(key)
        allowed: Set[str] = _TRANSITIONS.get(old, set())
        if new not in allowed:
            violations.append(
                InvariantViolation(
                    "INV-COMPLETE",
                    rec.time,
                    rec["mid"],
                    f"request <{key[1]},{key[2]}> made illegal "
                    f"transition {old!r} -> {new!r}",
                )
            )
        delivered[key] = new

    def _check_ledger(
        self,
        ledger: CostLedger,
        end_time: float,
        violations: List[InvariantViolation],
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


def check_network(
    net, strict_completion: bool = True
) -> List[InvariantViolation]:
    """Check a finished :class:`~repro.core.node.Network` run."""
    checker = InvariantChecker(
        network=net, strict_completion=strict_completion
    )
    return checker.check(net.sim.trace, ledger=net.ledger)


def _timer_live(timer) -> bool:
    return timer is not None and not timer.cancelled


def check_network_degraded(net) -> List[InvariantViolation]:
    """Best-effort checks for runs whose ring-buffer trace lost records.

    A truncated trace cannot be replayed — the missing prefix holds the
    first transmissions, handler entries, and delivered-state
    transitions the full checker keys on.  But two sources survive
    truncation intact and can still be audited:

    * the tracer's **counters**, which count every record ever emitted
      regardless of retention — handler entries and exits must balance
      to the number of handlers legitimately still open (at most one
      per node, INV-HANDLER);
    * the **live kernel state** at the horizon — closed requests must
      not hold armed probe timers, and no connection may sit with an
      outstanding message and no armed timer;

    plus the cost ledger (INV-LEDGER), which is cumulative and
    unaffected by record retention.
    """
    violations: List[InvariantViolation] = []
    now = net.sim.now
    counters = net.sim.trace.counters

    # Boot handlers (Initialization) enter via ``kernel.boot_handler``,
    # everything else via ``kernel.interrupt``; both exit through
    # ``kernel.endhandler``.  At the horizon at most one handler per
    # node may legitimately still be open.
    entered = counters.get("kernel.interrupt", 0) + counters.get(
        "kernel.boot_handler", 0
    )
    exited = counters.get("kernel.endhandler", 0)
    open_handlers = entered - exited
    if not 0 <= open_handlers <= len(net.nodes):
        violations.append(
            InvariantViolation(
                "INV-HANDLER",
                now,
                None,
                f"handler entry/exit counters do not balance: "
                f"{entered} entries vs {exited} ENDHANDLERs leaves "
                f"{open_handlers} open across {len(net.nodes)} node(s)",
            )
        )

    for mid in sorted(net.nodes):
        kernel = net.nodes[mid].kernel
        for tid, attr in kernel.leaked_probe_timers():
            violations.append(
                InvariantViolation(
                    "INV-DELTAT",
                    now,
                    mid,
                    f"closed request #{tid} still holds a live {attr}",
                )
            )
        for peer in sorted(kernel.connections):
            conn = kernel.connections[peer]
            if conn.outstanding is None:
                continue
            if not (
                _timer_live(conn._retransmit_timer)
                or _timer_live(conn._busy_timer)
            ):
                violations.append(
                    InvariantViolation(
                        "INV-DELTAT",
                        now,
                        mid,
                        f"connection to {peer} wedged: outstanding "
                        f"{conn.outstanding.kind!r} with no armed timer",
                    )
                )

    InvariantChecker(network=net)._check_ledger(net.ledger, now, violations)
    return violations
