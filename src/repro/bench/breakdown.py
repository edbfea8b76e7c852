"""The "Breakdown of Communications Overhead" table (p. 116): T4.

The paper decomposes one 2-packet SIGNAL's 7.1 ms into connection-timer,
retransmit-timer, context-switch, transmission, client-overhead, and
protocol time.  We run the identical scenario — a single blocking SIGNAL
ACCEPTed in the server handler — with the cost ledger armed only for the
measured window, and report simulated microseconds per category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bench.tables import failing, format_table
from repro.bench.workloads import BENCH_PATTERN, AcceptingServer
from repro.core.client import ClientProgram
from repro.core.config import KernelConfig
from repro.core.node import Network

#: Published values in milliseconds (§5.5).
BREAKDOWN_PAPER_MS: Dict[str, float] = {
    "connection_timers": 1.0,
    "retransmit_timers": 0.7,
    "context_switch": 0.8,
    "transmission": 0.4,
    "client_overhead": 2.2,
    "protocol": 2.0,
}

BREAKDOWN_TOTAL_PAPER_MS = 7.1


@dataclass
class BreakdownResult:
    measured_ms: Dict[str, float]
    paper_ms: Dict[str, float]
    total_measured_ms: float
    total_paper_ms: float
    elapsed_call_ms: float

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form for ``BENCH_*.json`` snapshots."""
        return {
            "measured_ms": {
                key: self.measured_ms[key] for key in sorted(self.measured_ms)
            },
            "paper_ms": {
                key: self.paper_ms[key] for key in sorted(self.paper_ms)
            },
            "total_measured_ms": self.total_measured_ms,
            "total_paper_ms": self.total_paper_ms,
            "elapsed_call_ms": self.elapsed_call_ms,
        }


class _OneSignal(ClientProgram):
    def __init__(self):
        self.window = None
        self.elapsed_us = None

    def task(self, api):
        sig = api.server_sig(0, BENCH_PATTERN)
        # One warmup SIGNAL so both kernels are past any cold-start work.
        yield from api.b_signal(sig)
        yield api.compute(20_000)
        ledger = api.kernel.ledger
        before = ledger.snapshot()
        t0 = api.now
        yield from api.b_signal(sig)
        self.elapsed_us = api.now - t0
        self.window = ledger.diff(before)
        yield from api.serve_forever()


def measure_signal_breakdown(seed: int = 5) -> BreakdownResult:
    net = Network(seed=seed, config=KernelConfig(), keep_trace=False)
    net.add_node(program=AcceptingServer())
    client = _OneSignal()
    net.add_node(program=client, boot_at_us=100.0)
    net.run(until=60_000_000.0)
    if client.window is None:
        raise RuntimeError("breakdown scenario did not finish")
    measured_ms = {
        key: client.window.get(key, 0.0) / 1000.0 for key in BREAKDOWN_PAPER_MS
    }
    return BreakdownResult(
        measured_ms=measured_ms,
        paper_ms=dict(BREAKDOWN_PAPER_MS),
        total_measured_ms=sum(measured_ms.values()),
        total_paper_ms=BREAKDOWN_TOTAL_PAPER_MS,
        elapsed_call_ms=client.elapsed_us / 1000.0,
    )


def render(body) -> str:
    """T4 as a console table, in the paper's category order."""
    rows = [
        (name, body["measured_ms"][name], body["paper_ms"][name])
        for name in BREAKDOWN_PAPER_MS
    ]
    rows.append(("TOTAL", body["total_measured_ms"], body["total_paper_ms"]))
    table = format_table(
        ["category", "measured ms", "paper ms"], rows,
        title="Breakdown of protocol time (2-packet SIGNAL)",
    )
    return f"{table}\nelapsed B_SIGNAL: {body['elapsed_call_ms']:.2f} ms"


def verdicts(body) -> List[str]:
    """Each category within 25 % of the paper's, the total within 15 %,
    and the B_SIGNAL call's elapsed time more than half of that
    total."""
    measured, paper = body["measured_ms"], body["paper_ms"]
    total, total_paper = body["total_measured_ms"], body["total_paper_ms"]
    elapsed = body["elapsed_call_ms"]
    return failing(
        [
            (abs(measured[name] - paper[name]) <= 0.25 * paper[name],
             f"T4 {name}: {measured[name]:.2f} ms, not within 25% of the "
             f"paper's {paper[name]}")
            for name in paper
        ]
        + [
            (abs(total - total_paper) <= 0.15 * total_paper,
             f"T4 total: {total:.2f} ms, not within 15% of the paper's "
             f"{total_paper}"),
            (elapsed > total / 2,
             f"T4: the B_SIGNAL call took {elapsed:.2f} ms, not more than "
             f"half the {total:.2f} ms its categories add up to"),
        ]
    )
