"""``python -m repro bench analysis`` — invariant checker state vs trace length.

One long soak (a streaming requester pushing a fixed request count
through an accepting server) runs counters-only with
:class:`~repro.analysis.invariants.InvariantChecker` and the causal
engine in one live :class:`~repro.sim.tracing.SinkTable`: the checker's
working set is the open-transaction state only, while the trace it
judges grows with the run.

The committed ``BENCH_analysis.json`` carries only *deterministic*
numbers (record counts, simulated-time throughput, peak retained state,
verdicts) so ``bench analysis --check`` can compare it byte-for-byte;
what the checker costs in host time is ``perf/``'s to measure
(``analysis.check_network_s`` / ``analysis.check_stream_s``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.causal import CausalSink
from repro.analysis.invariants import InvariantChecker
from repro.bench.workloads import AcceptingServer, StreamingRequester
from repro.core.node import Network
from repro.sim.tracing import SinkTable

#: Fixed soak shape: enough transactions that open state vs trace
#: length separates by orders of magnitude, small enough for CI.
SOAK_SEED = 29
SOAK_TXNS = 600
SOAK_HORIZON_US = 120_000_000.0


def _build_soak() -> Network:
    net = Network(seed=SOAK_SEED, keep_trace=False)
    net.add_node(program=AcceptingServer(reply_bytes=8))
    net.add_node(
        program=StreamingRequester(put_bytes=32, get_bytes=8, total=SOAK_TXNS),
        boot_at_us=100.0,
    )
    return net


def run(ns=None) -> Dict[str, Any]:
    """Run the soak under the live checker; returns the deterministic body."""
    net = _build_soak()
    checker = InvariantChecker(network=net)
    causal = CausalSink(mpl_us=net.config.deltat.mpl_us)
    table = SinkTable(checker, causal).install(net)
    net.run(until=SOAK_HORIZON_US)
    violations = checker.finish(ledger=net.ledger, end_time=table.end_time)
    records = table.records_fed
    horizon_us = net.sim.now
    return {
        "soak": {
            "seed": SOAK_SEED,
            "transactions": SOAK_TXNS,
            "horizon_sim_s": horizon_us / 1e6,
            "records_total": records,
        },
        "streaming": {
            "records_checked": records,
            "peak_open_state": checker.peak_open_state,
            "retained_ratio": (
                checker.peak_open_state / records if records else 0.0
            ),
            "violations": [v.format() for v in violations],
        },
        "causal": {
            "clocks_allocated": causal.clocks_allocated,
            "send_edges": causal.send_edges,
            "unmatched_rx": causal.unmatched_rx,
            "processes": len(causal.processes),
        },
        "records_per_sim_second": (
            records / (horizon_us / 1e6) if horizon_us else 0.0
        ),
    }


def render(body) -> str:
    soak, streaming = body["soak"], body["streaming"]
    return "\n".join(
        [
            f"soak: {soak['records_total']} records over "
            f"{soak['horizon_sim_s']:.2f} simulated seconds "
            f"({soak['transactions']} transactions, seed {soak['seed']})",
            f"checker: peak open state {streaming['peak_open_state']} "
            f"({streaming['retained_ratio'] * 100.0:.3f}% of trace), "
            f"{len(streaming['violations'])} violation(s)",
        ]
    )


def verdicts(body) -> List[str]:
    return body["streaming"]["violations"]
