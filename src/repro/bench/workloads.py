"""Measurement runs (§5.5) for the paper tables.

The paper's numbers come from streams of requests between one requester
and one server on otherwise-idle hardware:

* the **server** ACCEPTs each arrival either immediately in its handler
  or — in the "queued" variants — from a task polling a queue of
  requester signatures (the port pattern of §4.2.1);
* the **streaming requester** keeps MAXREQUESTS non-blocking REQUESTs
  outstanding, reissuing from its completion handler;
* the **blocking requester** issues B_SIGNALs one at a time and measures
  each call's elapsed time.

The programs live in :mod:`repro.workloads` with every other role
program and are re-exported here; this module times them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import KernelConfig
from repro.core.node import Network
from repro.workloads import (  # noqa: F401  (re-exported §5.5 programs)
    BENCH_PATTERN,
    AcceptingServer,
    BlockingSignaler,
    QueuedServer,
    StreamingRequester,
)


@dataclass
class StreamResult:
    """Steady-state measurements of one workload run."""

    per_txn_ms: float
    packets_per_txn: float
    txns: int
    #: Per-call times (blocking workloads only).
    call_times_ms: List[float] = field(default_factory=list)
    #: Cost-ledger delta over the measured window (µs per category).
    breakdown_us: Dict[str, float] = field(default_factory=dict)
    #: Steady-state completion-to-completion gaps (streaming workloads).
    txn_times_ms: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form for ``BENCH_*.json`` snapshots."""
        return {
            "per_txn_ms": self.per_txn_ms,
            "packets_per_txn": self.packets_per_txn,
            "txns": self.txns,
            "call_times_ms": list(self.call_times_ms),
            "txn_times_ms": list(self.txn_times_ms),
            "breakdown_us": {
                key: self.breakdown_us[key]
                for key in sorted(self.breakdown_us)
            },
        }


def _build(
    pipelined: bool,
    queued_accept: bool,
    reply_bytes: int,
    seed: int,
) -> Network:
    net = Network(
        seed=seed,
        config=KernelConfig(pipelined=pipelined),
        keep_trace=False,
    )
    server = (
        QueuedServer(reply_bytes=reply_bytes)
        if queued_accept
        else AcceptingServer(reply_bytes=reply_bytes)
    )
    net.add_node(program=server)
    return net


def run_stream(
    put_words: int,
    get_words: int,
    pipelined: bool = False,
    queued_accept: bool = False,
    txns: int = 14,
    warmup: int = 5,
    seed: int = 5,
    word_bytes: int = 2,
) -> StreamResult:
    """Steady-state per-transaction latency and packet count (T1-T3)."""
    put_bytes = put_words * word_bytes
    get_bytes = get_words * word_bytes
    net = _build(pipelined, queued_accept, get_bytes, seed)
    client = StreamingRequester(put_bytes, get_bytes, total=txns)
    net.add_node(program=client, boot_at_us=100.0)
    net.run(until=600_000_000.0)
    if len(client.marks) != txns:
        raise RuntimeError(
            f"stream did not complete: {len(client.marks)}/{txns}"
        )
    times = [t for t, _ in client.marks]
    frames = [f for _, f in client.marks]
    n = txns - warmup - 1
    per_txn_ms = (times[-1] - times[warmup]) / n / 1000.0
    packets = (frames[-1] - frames[warmup]) / n
    steady_gaps_ms = [
        (later - earlier) / 1000.0
        for earlier, later in zip(times[warmup:], times[warmup + 1 :])
    ]
    return StreamResult(
        per_txn_ms=per_txn_ms,
        packets_per_txn=packets,
        txns=txns,
        txn_times_ms=steady_gaps_ms,
        breakdown_us=net.ledger.snapshot(),
    )


def run_blocking_signals(
    pipelined: bool = False,
    queued_accept: bool = False,
    txns: int = 10,
    warmup: int = 2,
    seed: int = 5,
) -> StreamResult:
    """Per-call B_SIGNAL latency (the §5.5 8.5 ms / 10.0 ms numbers)."""
    net = _build(pipelined, queued_accept, 0, seed)
    client = BlockingSignaler(total=txns)
    net.add_node(program=client, boot_at_us=100.0)
    net.run(until=600_000_000.0)
    if len(client.call_times_us) != txns:
        raise RuntimeError(
            f"blocking run incomplete: {len(client.call_times_us)}/{txns}"
        )
    steady = client.call_times_us[warmup:]
    mean_ms = sum(steady) / len(steady) / 1000.0
    return StreamResult(
        per_txn_ms=mean_ms,
        packets_per_txn=0.0,
        txns=txns,
        call_times_ms=[t / 1000.0 for t in steady],
        breakdown_us=net.ledger.snapshot(),
    )
