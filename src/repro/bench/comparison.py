"""The \\*MOD comparison of §5.5: C1-C2.

Four SODA measurements against two \\*MOD measurements, all on the same
simulated PDP-11/Megalink hardware:

==============================  =========  =================
scenario                        paper ms   semantically like
==============================  =========  =================
B_SIGNAL, accept in handler        8.5
B_SIGNAL, queued accept           10.0      \\*MOD sync port call (20.7)
SIGNAL stream, accept in handler   4.9
SIGNAL stream, queued accept       5.8      \\*MOD async port call (11.1)
==============================  =========  =================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.baselines.starmod import StarModNetwork
from repro.bench.tables import dict_table, failing
from repro.bench.workloads import run_blocking_signals, run_stream


@dataclass
class ComparisonRow:
    scenario: str
    measured_ms: float
    paper_ms: float

    def to_dict(self) -> dict:
        """Machine-readable form for ``BENCH_*.json`` snapshots."""
        return {
            "scenario": self.scenario,
            "measured_ms": self.measured_ms,
            "paper_ms": self.paper_ms,
        }


PAPER_COMPARISON_MS = {
    "soda_b_signal": 8.5,
    "soda_b_signal_queued": 10.0,
    "soda_signal_stream": 4.9,
    "soda_signal_stream_queued": 5.8,
    "starmod_sync_call": 20.7,
    "starmod_async_send": 11.1,
}


def _starmod_sync(seed: int) -> float:
    net = StarModNetwork(2, seed=seed)
    server, client = net.nodes
    server.serve_port("p", lambda data: b"ok")
    times: List[float] = []

    def body():
        for _ in range(6):
            t0 = net.sim.now
            yield from client.sync_call(0, "p", b"\x01\x02")
            times.append(net.sim.now - t0)

    net.sim.spawn(body())
    net.run(until=60_000_000.0)
    steady = times[1:]
    return sum(steady) / len(steady) / 1000.0


def _starmod_async(seed: int) -> float:
    net = StarModNetwork(2, seed=seed)
    server, client = net.nodes
    server.serve_port("p", lambda data: b"")
    marks: List[float] = []

    def body():
        for _ in range(8):
            yield from client.async_send(0, "p", b"\x01\x02")
            marks.append(net.sim.now)

    net.sim.spawn(body())
    net.run(until=60_000_000.0)
    deltas = [b - a for a, b in zip(marks, marks[1:])]
    return sum(deltas) / len(deltas) / 1000.0


def measure_comparison(seed: int = 5) -> List[ComparisonRow]:
    """All six rows of the §5.5 comparison."""
    rows = [
        ComparisonRow(
            "soda_b_signal",
            run_blocking_signals(seed=seed).per_txn_ms,
            PAPER_COMPARISON_MS["soda_b_signal"],
        ),
        ComparisonRow(
            "soda_b_signal_queued",
            run_blocking_signals(queued_accept=True, seed=seed).per_txn_ms,
            PAPER_COMPARISON_MS["soda_b_signal_queued"],
        ),
        ComparisonRow(
            "soda_signal_stream",
            run_stream(0, 0, seed=seed).per_txn_ms,
            PAPER_COMPARISON_MS["soda_signal_stream"],
        ),
        ComparisonRow(
            "soda_signal_stream_queued",
            run_stream(0, 0, queued_accept=True, seed=seed).per_txn_ms,
            PAPER_COMPARISON_MS["soda_signal_stream_queued"],
        ),
        ComparisonRow(
            "starmod_sync_call",
            _starmod_sync(seed),
            PAPER_COMPARISON_MS["starmod_sync_call"],
        ),
        ComparisonRow(
            "starmod_async_send",
            _starmod_async(seed),
            PAPER_COMPARISON_MS["starmod_async_send"],
        ),
    ]
    return rows


def render(rows) -> str:
    return dict_table(
        "SODA vs *MOD",
        (
            ("scenario", "scenario"),
            ("measured ms", "measured_ms"),
            ("paper ms", "paper_ms"),
        ),
        rows,
    )


def verdicts(rows) -> List[str]:
    """Each row within 20 % of the paper's; a queued accept slower than
    one in the handler, a SIGNAL stream faster than B_SIGNAL, and \\*MOD
    more than 1.5x slower than its SODA counterpart, both ways."""
    ms = {row["scenario"]: row["measured_ms"] for row in rows}
    ratios = {
        "sync": ms["starmod_sync_call"] / ms["soda_b_signal_queued"],
        "async": ms["starmod_async_send"] / ms["soda_signal_stream_queued"],
    }
    return failing(
        [
            (abs(row["measured_ms"] - row["paper_ms"]) <= 0.20 * row["paper_ms"],
             f"{row['scenario']}: {row['measured_ms']:.1f} ms, not within "
             f"20% of the paper's {row['paper_ms']}")
            for row in rows
        ]
        + [
            (ms["soda_b_signal"] < ms["soda_b_signal_queued"],
             "a queued accept is not slower than one in the handler"),
            (ms["soda_signal_stream"] < ms["soda_b_signal"],
             "a SIGNAL stream is not faster than B_SIGNAL"),
        ]
        + [
            (ratio > 1.5,
             f"*MOD {way} call: {ratio:.2f}x its queued SODA counterpart, "
             f"not > 1.5x")
            for way, ratio in ratios.items()
        ]
    )
