"""Post-run liveness and degradation assertions for chaos cells.

The invariant checker (PR 1) proves *safety* — nothing illegal happened
in the trace.  These checks prove *liveness* at the horizon: every
REQUEST issued more than a grace period ago reached a terminal status
(complete / cancelled / crashed / unadvertised), no kernel timer or
record outlived its incarnation, and no connection is wedged with an
outstanding message and no armed timer.

The grace period exists because a fault landing near the horizon is
still legitimately in flight: retransmission exhaustion, probe death,
and DISCOVER windows all resolve within :data:`~repro.chaos.scenario.GRACE_US`.

:func:`check_degradation` raises the bar from "eventually terminal" to
"kept serving while faulted": the completed fraction of judged spans
(goodput) must stay above a per-schedule floor, and the p99 end-to-end
latency of what did complete must stay bounded.  A violated bound fails
the cell exactly like a safety violation (ISSUE 5's verdict).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence

from repro.chaos.scenario import GRACE_US
from repro.core.node import Network
from repro.obs.spans import TransactionSpan, build_spans


def _timer_live(timer) -> bool:
    return timer is not None and not timer.cancelled


def pending_spans(
    spans: List[TransactionSpan], horizon: float, grace_us: float = GRACE_US
) -> List[str]:
    """The span half of liveness, the half both backends judge: every
    REQUEST issued before the trailing grace window reached a terminal
    status."""
    return [
        f"span <{span.requester_mid},{span.tid}> ({span.verb}) "
        f"issued at t={span.request_us / 1000.0:.1f}ms never "
        f"reached a terminal status"
        for span in spans
        if span.status == "pending" and span.request_us < horizon - grace_us
    ]


def check_liveness(
    net: Network,
    spans: Optional[List[TransactionSpan]] = None,
    grace_us: float = GRACE_US,
) -> List[str]:
    """Return human-readable liveness problems (empty = healthy): the
    span half, then what the live kernel tables hold at the horizon."""
    if spans is None:
        spans = build_spans(net.sim.trace.retained())
    problems = pending_spans(spans, net.sim.now, grace_us)

    for mid in sorted(net.nodes):
        kernel = net.nodes[mid].kernel
        # Still-open requests are judged via their span; a closed one
        # has retired from kernel.requests, so the kernel looks its
        # timers up in the scheduler instead.
        for tid, attr in kernel.leaked_probe_timers():
            problems.append(
                f"node {mid}: closed request #{tid} leaked a live {attr}"
            )

        client = kernel.client
        client_dead = client is None or client.dead
        if client_dead and kernel.offline_until is None:
            if kernel._discovers:
                problems.append(
                    f"node {mid}: dead client left "
                    f"{len(kernel._discovers)} open DISCOVER window(s)"
                )
            if kernel.pending_accepts:
                problems.append(
                    f"node {mid}: dead client left "
                    f"{len(kernel.pending_accepts)} pending ACCEPT(s)"
                )
            if kernel.held is not None:
                problems.append(
                    f"node {mid}: dead client still holds a parked "
                    f"REQUEST"
                )
            stuck = sorted(kernel.requests)
            if stuck:
                problems.append(
                    f"node {mid}: dead client left open request(s) "
                    f"{stuck}"
                )

        for peer in sorted(kernel.connections):
            conn = kernel.connections[peer]
            if conn.outstanding is None:
                continue
            if not (
                _timer_live(conn._retransmit_timer)
                or _timer_live(conn._busy_timer)
            ):
                problems.append(
                    f"node {mid}: connection to {peer} wedged — "
                    f"outstanding {conn.outstanding.kind!r} with no "
                    f"armed timer"
                )
    return problems


# ----------------------------------------------------------------------
# degradation verdict (goodput floor + latency bound)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DegradationBounds:
    """Per-schedule service-level bounds for one chaos cell.

    ``goodput_floor`` is the minimum completed fraction of judged spans
    (issued outside the trailing grace window; CANCELs and DISCOVERs are
    excluded — a successful withdrawal is not lost goodput).
    ``p99_latency_us`` bounds the 99th-percentile end-to-end latency of
    completed spans; ``None`` disables that bound (crash schedules,
    where the interesting latencies are the *failures*).
    """

    goodput_floor: float = 0.5
    p99_latency_us: Optional[float] = None
    #: Below this many judged spans the cell is too small to judge
    #: statistically; only the (trivially checkable) floor applies.
    min_spans: int = 1


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    rank = ceil(q * len(ordered))
    return ordered[max(rank, 1) - 1]


def check_degradation(
    spans: List[TransactionSpan],
    horizon_us: float,
    bounds: DegradationBounds,
    grace_us: float = GRACE_US,
) -> List[str]:
    """Judge a cell's service level; returns problems (empty = healthy)."""
    judged = [
        s
        for s in spans
        if not s.is_discover
        and s.status != "cancelled"
        and s.request_us < horizon_us - grace_us
    ]
    problems: List[str] = []
    if len(judged) < bounds.min_spans:
        return problems
    completed = [s for s in judged if s.completed]
    goodput = len(completed) / len(judged)
    if goodput < bounds.goodput_floor:
        problems.append(
            f"goodput {goodput:.2f} ({len(completed)}/{len(judged)} "
            f"spans completed) below floor {bounds.goodput_floor:.2f}"
        )
    if bounds.p99_latency_us is not None and completed:
        latencies = [
            s.latency_us for s in completed if s.latency_us is not None
        ]
        if latencies:
            p99 = percentile(latencies, 0.99)
            if p99 > bounds.p99_latency_us:
                problems.append(
                    f"p99 latency {p99 / 1000.0:.1f}ms exceeds bound "
                    f"{bounds.p99_latency_us / 1000.0:.1f}ms"
                )
    return problems
