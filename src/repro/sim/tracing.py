"""Trace records, counters, and the cost ledger.

Two observability mechanisms coexist:

* :class:`Tracer` — an append-only log of structured records plus named
  counters.  Tests and benchmarks use it to count packets per transaction,
  observe handler invocations, etc.
* :class:`CostLedger` — an accumulator of *simulated time charged to a
  named cost category*.  The SODA kernel charges every microsecond of
  simulated work to a category (``protocol``, ``connection_timers``,
  ``retransmit_timers``, ``context_switch``, ``transmission``,
  ``client_overhead``), which is exactly what the paper's "Breakdown of
  Communications Overhead" table reports.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Callable, Dict, List, MutableSequence, Optional


class TraceRecord:
    """One structured trace entry."""

    __slots__ = ("time", "category", "fields")

    def __init__(
        self, time: float, category: str, fields: Optional[Dict[str, Any]] = None
    ) -> None:
        self.time = time
        self.category = category
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        # Compared by value, hence (Python's rule) unhashable.
        if other.__class__ is not TraceRecord:
            return NotImplemented
        return (self.time, self.category, self.fields) == (
            other.time, other.category, other.fields
        )

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"fields={self.fields!r})"
        )


class Tracer:
    """Structured event log with counters.

    Tracing is cheap but not free; large benchmark runs can disable record
    retention (``keep_records=False``) and still use counters.  Soak runs
    that want *recent* records without unbounded growth set
    ``max_records``: retention becomes a ring buffer and
    :attr:`dropped_records` counts what fell off the front (a trace with
    drops is :attr:`truncated` and cannot be replayed by the invariant
    checker).

    Sinks (:meth:`add_sink`) stream every record to a live consumer —
    the observability hub uses one — independent of retention.  With no
    sinks installed the per-record cost is a single falsy check.
    """

    def __init__(
        self,
        keep_records: bool = True,
        max_records: Optional[int] = None,
    ) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError(f"max_records must be positive: {max_records}")
        self.keep_records = keep_records
        self.max_records = max_records
        self.records: MutableSequence[TraceRecord] = (
            deque(maxlen=max_records) if max_records is not None else []
        )
        self.counters: Counter = Counter()
        self.dropped_records = 0
        self._sinks: List[Callable[[TraceRecord], None]] = []
        # Precomputed fast-mode flag: with retention off and no sinks,
        # record() never constructs a TraceRecord — it only bumps the
        # category counter.  Kept in sync by add_sink/remove_sink.
        self._passive = not keep_records

    @property
    def passive(self) -> bool:
        """True while nothing consumes record fields (no retention, no
        sinks): :meth:`record` only counts, so a hot call site may skip
        building its fields and call ``record(time, category)`` bare."""
        return self._passive

    @property
    def truncated(self) -> bool:
        """True if ring-buffer mode has dropped any records."""
        return self.dropped_records > 0

    @property
    def replayable(self) -> bool:
        """True while :attr:`records` holds every record ever emitted."""
        return self.keep_records and not self.truncated

    def retained(self) -> MutableSequence[TraceRecord]:
        """:attr:`records`, for a post-hoc pass over a finished run — an
        error on a partial list, which would be judged clean vacuously
        (or guilty of what its missing prefix explains)."""
        if not self.replayable:
            raise ValueError(
                f"trace holds {len(self.records)} of "
                f"{sum(self.counters.values())} records emitted: a post-hoc "
                f"pass would judge a partial run; use "
                f"check_network_degraded(net), or install() the sink on "
                f"the tracer before running"
            )
        return self.records

    def add_sink(self, sink: Callable[[TraceRecord], None]) -> None:
        """Stream every future record to ``sink`` (live metrics)."""
        self._sinks.append(sink)
        self._passive = False

    def remove_sink(self, sink: Callable[[TraceRecord], None]) -> None:
        self._sinks.remove(sink)
        self._passive = not self.keep_records and not self._sinks

    def record(self, time: float, category: str, **fields: Any) -> None:
        self.counters[category] += 1
        if self._passive:
            return
        entry = TraceRecord(time, category, fields)
        if self.keep_records:
            if (
                self.max_records is not None
                and len(self.records) >= self.max_records
            ):
                self.dropped_records += 1
            self.records.append(entry)
        for sink in self._sinks:
            sink(entry)

    def count(self, category: str) -> int:
        return self.counters[category]

    def select(self, category: str, **match: Any) -> List[TraceRecord]:
        """All retained records of a category whose fields match ``match``."""
        out = []
        for record in self.records:
            if record.category != category:
                continue
            if all(record.get(key) == value for key, value in match.items()):
                out.append(record)
        return out

    def iter_category(self, category: str):
        """Lazily yield retained records of one category, in time order."""
        for record in self.records:
            if record.category == category:
                yield record

    def categories(self) -> List[str]:
        """All categories seen so far (retained or counted), sorted."""
        return sorted(self.counters)

    def last(self, category: str) -> Optional[TraceRecord]:
        for record in reversed(self.records):
            if record.category == category:
                return record
        return None

    def reset(self) -> None:
        self.records.clear()
        self.counters.clear()
        self.dropped_records = 0


class CostLedger:
    """Accumulates simulated time per cost category.

    Categories mirror the paper's overhead-breakdown table.  ``charge`` is
    called by the kernel and client runtime at the moment work is modelled,
    so `total()` equals the sum of all modelled busy time.
    """

    CATEGORIES = (
        "connection_timers",
        "retransmit_timers",
        "context_switch",
        "transmission",
        "client_overhead",
        "protocol",
        "disk_io",
    )

    def __init__(self) -> None:
        self._charges: Counter = Counter()

    def charge(self, category: str, microseconds: float) -> None:
        if microseconds < 0:
            raise ValueError(f"negative charge: {microseconds}")
        self._charges[category] += microseconds

    def charge_packet(
        self, protocol_us: float, timers_us: float, retransmit_us: float
    ) -> None:
        """One packet's kernel handling, in one call: ``protocol``, then
        ``connection_timers``, then ``retransmit_timers``, as three
        :meth:`charge` calls would add them.  A zero charge is skipped,
        so a category never charged stays out of :meth:`snapshot`."""
        if protocol_us < 0 or timers_us < 0 or retransmit_us < 0:
            raise ValueError(
                f"negative charge: {(protocol_us, timers_us, retransmit_us)}"
            )
        charges = self._charges
        if protocol_us:
            charges["protocol"] += protocol_us
        if timers_us:
            charges["connection_timers"] += timers_us
        if retransmit_us:
            charges["retransmit_timers"] += retransmit_us

    def get(self, category: str) -> float:
        return float(self._charges[category])

    def total(self) -> float:
        return float(sum(self._charges.values()))

    def snapshot(self) -> Dict[str, float]:
        return {key: float(value) for key, value in self._charges.items()}

    def diff(self, earlier: Dict[str, float]) -> Dict[str, float]:
        """Charges accumulated since an earlier :meth:`snapshot`."""
        out: Dict[str, float] = {}
        for key, value in self._charges.items():
            delta = float(value) - earlier.get(key, 0.0)
            if delta:
                out[key] = delta
        return out

    def reset(self) -> None:
        self._charges.clear()
