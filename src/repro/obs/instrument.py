"""Wiring the metrics registry into a running network.

:meth:`MetricsHub.install` puts one :class:`~repro.sim.tracing.SinkTable`
of the hub and its span builder on the network's tracer before the run,
so every record feeds the registry and the spans as it is emitted (a
counters-only ``keep_trace=False`` run is observed the same way).
:meth:`~MetricsHub.report` then pull-collects the always-on layer
counters (bus busy time and queue depth, NIC frame/byte counters,
Delta-t record expiries, the cost ledger) and returns an
:class:`ObsReport`.

Nothing in the simulation references this module: with no hub attached,
the only per-packet work is the counters the layers already kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanBuilder, TransactionSpan, span_statistics
from repro.sim.tracing import SinkTable, TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import Network


@dataclass
class ObsReport:
    """The outcome of observing one run."""

    snapshot: Dict[str, Dict[str, Any]]
    spans: List[TransactionSpan] = field(default_factory=list)
    ledger: Dict[str, float] = field(default_factory=dict)

    @property
    def completed_spans(self) -> List[TransactionSpan]:
        return [span for span in self.spans if span.completed]

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic, JSON-ready view of the whole report."""
        return {
            "metrics": self.snapshot,
            "cost_ledger_us": {
                key: self.ledger[key] for key in sorted(self.ledger)
            },
            "spans": {
                "total": len(self.spans),
                "completed": len(self.completed_spans),
                "by_status": self._count_by("status"),
                "by_verb": self._count_by("verb"),
            },
        }

    def _count_by(self, attr: str) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            key = getattr(span, attr)
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


def _count(name: str, per: Optional[str] = None):
    """A :attr:`MetricsHub.HANDLERS` row that counts its category as
    ``name`` and, per value of the record's field ``per``, as
    ``<name>.<value>``."""

    def handler(hub: "MetricsHub", record: TraceRecord) -> None:
        hub.registry.counter(name).inc()
        if per is not None:
            hub.registry.counter(f"{name}.{record[per]}").inc()

    return handler


class MetricsHub:
    """Collects registry metrics and spans for one network run."""

    #: Always-visible recovery counters (docs/RECOVERY.md): registered
    #: up front so fault-free runs report them as explicit zeros.
    RECOVERY_COUNTERS = (
        "recovery.crash_reports",
        "recovery.crashes_detected",
        "recovery.reboots_issued",
        "recovery.retries",
        "recovery.ambiguous_maybes",
        "recovery.restored",
        "recovery.escalations",
    )

    #: Always-visible transport/overload counters (ISSUE 5): registered
    #: up front so a clean adaptive run reports explicit zeros — the
    #: bench comparison needs "0 spurious retransmits" as a value, not
    #: a missing key.
    TRANSPORT_COUNTERS = (
        "transport.spurious_retransmits",
        "transport.resyncs",
        "kernel.shed",
    )

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanBuilder()
        self._net: Optional["Network"] = None
        self._handler_start: Dict[int, float] = {}
        for name in self.RECOVERY_COUNTERS + self.TRANSPORT_COUNTERS:
            self.registry.counter(name)

    # -- attachment --------------------------------------------------------

    def install(self, net: "Network") -> "MetricsHub":
        """Observe ``net`` live: one table of the hub and its span
        builder on the tracer, before the run."""
        if self._net is not None:
            raise RuntimeError("hub already attached to a network")
        SinkTable(self, self.spans).install(net)
        self._net = net
        return self

    # -- the record handlers -----------------------------------------------

    def _on_tx(self, record: TraceRecord) -> None:
        self.registry.counter("kernel.tx_packets").inc()
        self.registry.counter(f"node.{record['mid']}.tx_packets").inc()

    def _on_rx(self, record: TraceRecord) -> None:
        self.registry.counter("kernel.rx_packets").inc()
        self.registry.counter(f"node.{record['mid']}.rx_packets").inc()

    def _on_acked(self, record: TraceRecord) -> None:
        reg = self.registry
        kind = record["kind"]
        reg.histogram("transport.rtt_us").observe(record["rtt_us"])
        reg.histogram(f"transport.rtt_us.{kind}").observe(record["rtt_us"])
        attempts = record.get("attempts")
        if attempts is not None:
            reg.histogram("transport.attempts_to_ack").observe(attempts)
            reg.histogram(f"transport.attempts_to_ack.{kind}").observe(attempts)
            policy = record.get("policy")
            if policy is not None:
                reg.histogram(
                    f"transport.attempts_to_ack.policy.{policy}"
                ).observe(attempts)

    def _on_interrupt(self, record: TraceRecord) -> None:
        self.registry.counter("kernel.interrupts").inc()
        self.registry.counter(f"kernel.interrupts.{record['reason']}").inc()
        self._handler_start[record["mid"]] = record.time

    def _on_endhandler(self, record: TraceRecord) -> None:
        start = self._handler_start.pop(record["mid"], None)
        if start is not None:
            self.registry.histogram("kernel.handler_occupancy_us").observe(
                record.time - start
            )

    #: category -> what it feeds the registry; every record path through
    #: the hub is one lookup here (the same shape as the judges' tables).
    HANDLERS = {
        "kernel.tx": _on_tx,
        "kernel.rx": _on_rx,
        "conn.acked": _on_acked,
        "conn.spurious_retransmit": _count(
            "transport.spurious_retransmits", per="kind"
        ),
        "conn.resync": _count("transport.resyncs"),
        "kernel.shed": _count("kernel.shed"),
        "conn.retransmit": _count("transport.retransmits", per="kind"),
        "conn.busy_retry": _count("transport.busy_retries"),
        "conn.peer_dead": _count("transport.peers_declared_dead"),
        "kernel.busy_nack": _count("kernel.busy_nacks"),
        "kernel.hold": _count("kernel.held_requests"),
        "kernel.request": _count("kernel.requests"),
        "kernel.complete": _count("kernel.completions"),
        "kernel.cancelled": _count("kernel.cancels"),
        "kernel.interrupt": _on_interrupt,
        "kernel.endhandler": _on_endhandler,
        "net.drop": _count("bus.frames_dropped"),
        "kernel.crash_report": _count("recovery.crash_reports", per="reason"),
        "recovery.suspect": _count("recovery.suspicions"),
        "recovery.crash_detected": _count("recovery.crashes_detected"),
        "recovery.reboot": _count("recovery.reboots_issued"),
        "recovery.reboot_attempt": _count("recovery.reboot_attempts"),
        "recovery.restored": _count("recovery.restored"),
        "recovery.escalated": _count("recovery.escalations"),
        "recovery.retry": _count("recovery.retries"),
        "recovery.maybe": _count("recovery.ambiguous_maybes"),
    }

    # -- pull collection ---------------------------------------------------

    def collect(self) -> None:
        """Sample the always-on layer counters into gauges.

        A no-op without an attached network: there are no live layer
        objects to pull from.
        """
        net = self._net
        if net is None:
            return
        reg = self.registry
        now = net.sim.now
        bus = net.bus
        reg.gauge("bus.utilization").set(bus.utilization(now))
        reg.gauge("bus.busy_time_us").set(bus.busy_time_us)
        reg.gauge("bus.frames_sent").set(bus.frames_sent)
        reg.gauge("bus.bytes_sent").set(bus.bytes_sent)
        reg.gauge("bus.peak_queue_depth").set(bus.peak_queue_depth)
        expiries = 0
        synchronizations = 0
        for mid in sorted(net.nodes):
            node = net.nodes[mid]
            nic = node.nic
            reg.gauge(f"node.{mid}.frames_sent").set(nic.frames_sent)
            reg.gauge(f"node.{mid}.frames_received").set(nic.frames_received)
            reg.gauge(f"node.{mid}.bytes_sent").set(nic.bytes_sent)
            reg.gauge(f"node.{mid}.bytes_received").set(nic.bytes_received)
            for conn in node.kernel.connections.values():
                expiries += conn.recv_record.expiries
                synchronizations += conn.recv_record.synchronizations
                est = conn.estimator
                if est is not None and est.samples:
                    peer = conn.peer_mid
                    reg.gauge(f"node.{mid}.srtt_us.peer{peer}").set(
                        est.srtt_us
                    )
                    reg.gauge(f"node.{mid}.rttvar_us.peer{peer}").set(
                        est.rttvar_us
                    )
            shed = node.kernel.overload.sheds
            if shed:
                reg.gauge(f"node.{mid}.sheds").set(shed)
        reg.gauge("transport.deltat_expiries").set(expiries)
        reg.gauge("transport.deltat_synchronizations").set(synchronizations)
        faults = net.faults
        reg.gauge("faults.frames_lost").set(faults.frames_lost)
        reg.gauge("faults.frames_corrupted").set(faults.frames_corrupted)
        reg.gauge("faults.frames_scripted_drops").set(
            faults.frames_scripted_drops
        )
        reg.gauge("faults.deliveries_predicate_dropped").set(
            faults.deliveries_predicate_dropped
        )
        for category, charge_us in sorted(net.ledger.snapshot().items()):
            reg.gauge(f"cost.{category}_us").set(charge_us)
        reg.gauge("cost.total_us").set(net.ledger.total())

    def report(self) -> ObsReport:
        """Collect gauges, fold spans into latency histograms, snapshot.

        Idempotent: span latency histograms are rebuilt from the span
        set each call, so calling ``report`` twice never double-counts.
        """
        self.collect()
        spans = self.spans.finish()
        for hist in span_statistics(spans).values():
            self.registry.install(hist)
        completed = sum(1 for span in spans if span.completed)
        self.registry.gauge("txn.spans").set(len(spans))
        self.registry.gauge("txn.completed").set(completed)
        ledger = self._net.ledger.snapshot() if self._net else {}
        return ObsReport(
            snapshot=self.registry.snapshot(), spans=spans, ledger=ledger
        )
