"""Per-transaction span reconstruction.

A *span* is the life of one REQUEST, keyed by its network-unique
``<requester MID, TID>`` signature, stitched together from the trace
records the kernel already emits:

========================  ==============================================
record                    span event
========================  ==============================================
``kernel.request``        span opens (requester side; verb + sizes)
``kernel.delivered_state``  ``delivered`` / ``accepted`` / ``done`` /
                          ``cancelled`` at the server
``kernel.accept``         the server issued ACCEPT
``kernel.complete``       the requester's completion interrupt (status)
``kernel.cancelled``      the requester successfully withdrew it
``kernel.busy_nack``      the REQUEST bounced off a BUSY handler
========================  ==============================================

Because reconstruction is a pure function of trace records it runs live
(in a tracer's :class:`~repro.sim.tracing.SinkTable`) or over a
retained trace (:func:`build_spans`), and costs the simulation nothing
when unused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import Histogram
from repro.sim.tracing import SinkTable, TraceRecord

#: Transaction verbs, derived from buffer sizes exactly as §3.1 names
#: them: both empty = SIGNAL, put only = PUT, get only = GET, both =
#: EXCHANGE.
VERBS = ("signal", "put", "get", "exchange")


def classify_verb(put_bytes: int, get_bytes: int) -> str:
    if put_bytes and get_bytes:
        return "exchange"
    if put_bytes:
        return "put"
    if get_bytes:
        return "get"
    return "signal"


@dataclass
class TransactionSpan:
    """One REQUEST's reconstructed lifetime."""

    requester_mid: int
    tid: int
    server_mid: int
    pattern: int
    verb: str
    put_bytes: int
    get_bytes: int
    request_us: float
    delivered_us: Optional[float] = None
    accept_us: Optional[float] = None
    complete_us: Optional[float] = None
    #: "pending" | "completed" | "cancelled" | "crashed" | "unadvertised"
    status: str = "pending"
    busy_nacks: int = 0
    is_discover: bool = False

    @property
    def key(self) -> Tuple[int, int]:
        return (self.requester_mid, self.tid)

    @property
    def latency_us(self) -> Optional[float]:
        """REQUEST issue to completion interrupt (end-to-end)."""
        if self.complete_us is None:
            return None
        return self.complete_us - self.request_us

    @property
    def delivery_us(self) -> Optional[float]:
        """REQUEST issue to arrival at the server handler."""
        if self.delivered_us is None:
            return None
        return self.delivered_us - self.request_us

    @property
    def service_us(self) -> Optional[float]:
        """Server-side dwell: delivery to ACCEPT (scheduling freedom)."""
        if self.delivered_us is None or self.accept_us is None:
            return None
        return self.accept_us - self.delivered_us

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def to_dict(self) -> Dict[str, object]:
        return {
            "requester_mid": self.requester_mid,
            "tid": self.tid,
            "server_mid": self.server_mid,
            "verb": self.verb,
            "put_bytes": self.put_bytes,
            "get_bytes": self.get_bytes,
            "status": self.status,
            "request_us": self.request_us,
            "delivered_us": self.delivered_us,
            "accept_us": self.accept_us,
            "complete_us": self.complete_us,
            "latency_us": self.latency_us,
            "busy_nacks": self.busy_nacks,
            "is_discover": self.is_discover,
        }


class SpanBuilder:
    """Incremental span reconstruction, a record sink: a
    :class:`~repro.sim.tracing.SinkTable` feeds it in time order."""

    def __init__(self) -> None:
        self._spans: Dict[Tuple[int, int], TransactionSpan] = {}

    def _on_request(self, record: TraceRecord) -> None:
        put_bytes = record.get("put", 0)
        get_bytes = record.get("get", 0)
        server_mid = record["dst"]
        span = TransactionSpan(
            requester_mid=record["mid"],
            tid=record["tid"],
            server_mid=server_mid,
            pattern=record.get("pattern", 0),
            verb=classify_verb(put_bytes, get_bytes),
            put_bytes=put_bytes,
            get_bytes=get_bytes,
            request_us=record.time,
            is_discover=server_mid < 0,
        )
        self._spans[span.key] = span

    def _lookup(self, requester_mid: int, tid: int) -> Optional[TransactionSpan]:
        return self._spans.get((requester_mid, tid))

    def _on_delivered_state(self, record: TraceRecord) -> None:
        span = self._lookup(record["src"], record["tid"])
        if span is None:
            return
        state = record["state"]
        if state == "delivered" and span.delivered_us is None:
            span.delivered_us = record.time
            span.server_mid = record["mid"]

    def _on_accept(self, record: TraceRecord) -> None:
        src = record.get("src")
        tid = record.get("tid")
        if src is None or tid is None:
            return
        span = self._lookup(src, tid)
        if span is not None and span.accept_us is None:
            span.accept_us = record.time

    def _on_complete(self, record: TraceRecord) -> None:
        span = self._lookup(record["mid"], record["tid"])
        if span is None:
            return
        span.complete_us = record.time
        span.status = record.get("status", "completed")

    def _on_cancelled(self, record: TraceRecord) -> None:
        span = self._lookup(record["mid"], record["tid"])
        if span is None:
            return
        span.status = "cancelled"
        if span.complete_us is None:
            span.complete_us = record.time

    def _on_busy_nack(self, record: TraceRecord) -> None:
        span = self._lookup(record["src"], record["tid"])
        if span is not None:
            span.busy_nacks += 1

    #: The rows this sink adds to a ``{category: handlers}`` dispatch
    #: table (the record → span event table of the module docstring).
    HANDLERS = {
        "kernel.request": _on_request,
        "kernel.delivered_state": _on_delivered_state,
        "kernel.accept": _on_accept,
        "kernel.complete": _on_complete,
        "kernel.cancelled": _on_cancelled,
        "kernel.busy_nack": _on_busy_nack,
    }

    def finish(self) -> List[TransactionSpan]:
        """All spans so far, in REQUEST-issue order (deterministic).
        Not terminal: a live hub reports mid-run and keeps feeding."""
        return sorted(
            self._spans.values(), key=lambda s: (s.request_us, s.key)
        )


def build_spans(records: Iterable[TraceRecord]) -> List[TransactionSpan]:
    """Reconstruct spans from retained trace records."""
    builder = SpanBuilder()
    SinkTable(builder).replay(records)
    return builder.finish()


def span_statistics(
    spans: Iterable[TransactionSpan],
) -> Dict[str, Histogram]:
    """Per-verb end-to-end latency histograms (ms) of completed spans."""
    histograms: Dict[str, Histogram] = {}
    for span in spans:
        latency = span.latency_us
        if not span.completed or latency is None:
            continue
        hist = histograms.get(span.verb)
        if hist is None:
            hist = histograms[span.verb] = Histogram(
                f"txn.latency_ms.{span.verb}"
            )
        hist.observe(latency / 1000.0)
    return histograms
