"""``python -m repro bench analysis`` — batch vs streaming checker state.

One long soak (a streaming requester pushing a fixed request count
through an accepting server) is checked twice:

* **batch** — retain every trace record, replay with
  :class:`~repro.analysis.invariants.InvariantChecker` afterwards; its
  working set is the whole trace;
* **streaming** — :class:`IncrementalChecker` attached as a live tracer
  sink; its working set is the open-transaction state only.

The committed ``BENCH_analysis.json`` carries only *deterministic*
numbers (record counts, simulated-time throughput, peak retained
state, verdict agreement) so ``bench analysis --check`` can compare it
byte-for-byte; what each checker costs in host time is ``perf/``'s to
measure (``analysis.check_network_s`` / ``analysis.check_stream_s``).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.causal.clocks import build_causal_order
from repro.analysis.causal.streaming import IncrementalChecker
from repro.analysis.invariants import InvariantChecker
from repro.bench.tables import failing
from repro.bench.workloads import AcceptingServer, StreamingRequester
from repro.core.node import Network

#: Fixed soak shape: enough transactions that open state vs trace
#: length separates by orders of magnitude, small enough for CI.
SOAK_SEED = 29
SOAK_TXNS = 600
SOAK_HORIZON_US = 120_000_000.0


def _build_soak() -> Network:
    net = Network(seed=SOAK_SEED)
    net.add_node(program=AcceptingServer(reply_bytes=8))
    net.add_node(
        program=StreamingRequester(put_bytes=32, get_bytes=8, total=SOAK_TXNS),
        boot_at_us=100.0,
    )
    return net


def run(ns=None) -> Dict[str, Any]:
    """Run the soak twice; returns the deterministic comparison body."""
    # -- batch: retain the full trace, replay afterwards -----------------
    net = _build_soak()
    net.run(until=SOAK_HORIZON_US)
    records = list(net.sim.trace.records)
    batch = InvariantChecker(network=net, strict_completion=True)
    batch_violations = batch.check(net.sim.trace, ledger=net.ledger)
    horizon_us = net.sim.now

    # -- streaming: live sink, no retention needed -----------------------
    live_net = _build_soak()
    checker = IncrementalChecker(network=live_net, strict_completion=True)
    checker.install(live_net)
    live_net.run(until=SOAK_HORIZON_US)
    stream_violations = checker.finish(ledger=live_net.ledger)

    order = build_causal_order(records)

    batch_fmt = [v.format() for v in batch_violations]
    stream_fmt = [v.format() for v in stream_violations]
    return {
        "soak": {
            "seed": SOAK_SEED,
            "transactions": SOAK_TXNS,
            "horizon_sim_s": horizon_us / 1e6,
            "records_total": len(records),
        },
        "batch": {
            "retained_records": len(records),
            "violations": batch_fmt,
        },
        "streaming": {
            "records_checked": checker.records_checked,
            "peak_open_state": checker.peak_open_state,
            "retained_ratio": (
                checker.peak_open_state / len(records) if records else 0.0
            ),
            "violations": stream_fmt,
        },
        "causal": {
            "clocks_allocated": order.clocks_allocated,
            "send_edges": order.send_edges,
            "unmatched_rx": order.unmatched_rx,
            "processes": len(order.processes),
        },
        "records_per_sim_second": (
            len(records) / (horizon_us / 1e6) if horizon_us else 0.0
        ),
        "verdicts_equal": batch_fmt == stream_fmt,
    }


def render(body) -> str:
    soak, batch, streaming = body["soak"], body["batch"], body["streaming"]
    return "\n".join(
        [
            f"soak: {soak['records_total']} records over "
            f"{soak['horizon_sim_s']:.2f} simulated seconds "
            f"({soak['transactions']} transactions, seed {soak['seed']})",
            f"batch:     retained {batch['retained_records']} records, "
            f"{len(batch['violations'])} violation(s)",
            f"streaming: peak open state {streaming['peak_open_state']} "
            f"({streaming['retained_ratio'] * 100.0:.3f}% of trace), "
            f"{len(streaming['violations'])} violation(s)",
            "verdicts: identical"
            if body["verdicts_equal"]
            else "verdicts: DIVERGED",
        ]
    )


def verdicts(body) -> List[str]:
    return body["batch"]["violations"] + failing(
        [(body["verdicts_equal"],
          "streaming checker diverged from batch replay")]
    )
