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

from collections import Counter
from types import MethodType
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


#: What a trace record *is*: category -> its field names, in the order
#: :meth:`Tracer.record` takes their values.  Every emitter under
#: ``src/`` passes exactly this row; a field the emitter has nothing to
#: say for (``epoch`` on most packets, ``reason`` on a clean completion)
#: holds ``None`` in its slot.  ``tests/obs/test_frame_records.py`` names
#: the reader of every field and docs/OBSERVABILITY.md renders the table.
#: No field may be called ``time`` or ``category``.
TRACE_SCHEMA: Dict[str, Tuple[str, ...]] = {
    # -- core/kernel.py ---------------------------------------------------
    "kernel.tx": (
        "mid", "dst", "ptype", "bytes", "seq", "pid", "tid", "ack", "fid",
        "epoch",
    ),
    "kernel.rx": (
        "mid", "src", "ptype", "seq", "tid", "ack", "nack", "hint", "fid",
        "epoch",
    ),
    "kernel.request": ("mid", "tid", "dst", "pattern", "put", "get"),
    "kernel.accept": (
        "mid", "sig", "src", "tid", "wait", "taken_put", "taken_get",
    ),
    "kernel.complete": (
        "mid", "tid", "status", "arg", "taken_put", "taken_get", "reason",
        "not_executed",
    ),
    "kernel.crash_report": (
        "mid", "peer", "tid", "status", "reason", "not_executed",
    ),
    "kernel.cancelled": ("mid", "tid"),
    "kernel.delivered_state": ("mid", "src", "tid", "state"),
    "kernel.hold": ("mid", "src", "tid"),
    "kernel.busy_nack": ("mid", "src", "tid", "hint_us", "hold_expired"),
    "kernel.shed": ("mid", "src", "tid", "occupancy_us"),
    "kernel.interrupt": ("mid", "reason"),
    "kernel.boot_handler": ("mid",),
    "kernel.endhandler": ("mid",),
    "kernel.advertise": ("mid", "pattern"),
    "kernel.unadvertise": ("mid", "pattern"),
    "kernel.boot_granted": ("mid", "parent"),
    "kernel.boot_start": ("mid", "parent"),
    "kernel.die": ("mid",),
    "kernel.client_reset": ("mid", "epoch"),
    "kernel.crash": ("mid", "quiet_us"),
    "kernel.recovered": ("mid",),
    # -- core/connection.py -----------------------------------------------
    "conn.acked": ("mid", "peer", "kind", "attempts", "rtt_us", "policy"),
    "conn.retransmit": ("mid", "peer", "kind", "attempt", "waited_us"),
    "conn.spurious_retransmit": ("mid", "peer", "kind", "attempts"),
    "conn.peer_dead": ("mid", "peer", "kind"),
    "conn.busy_retry": ("mid", "peer", "attempt"),
    "conn.seq_swap": ("mid", "peer", "parked_pid", "taker_pid", "seq"),
    "conn.resync": ("mid", "peer", "pid", "seq"),
    # -- net/medium.py, netreal/udp.py ------------------------------------
    "net.tx": ("src", "dst", "bytes", "frame_id"),
    "net.drop": ("src", "dst", "frame_id"),
    "net.replay": ("src", "dst", "frame_id", "kind"),
    "netreal.decode_error": ("mid", "octets", "error"),
    # -- recovery/ ----------------------------------------------------------
    "recovery.suspect": ("mid", "service_mid", "service", "misses"),
    "recovery.crash_detected": ("mid", "service_mid", "service"),
    "recovery.escalated": ("mid", "service_mid", "service", "restarts"),
    "recovery.reboot_attempt": (
        "mid", "service_mid", "service", "attempt", "ok",
    ),
    "recovery.reboot": ("mid", "service_mid", "service"),
    "recovery.restored": ("mid", "service_mid", "service"),
    "recovery.retry": ("mid", "target", "attempt", "reason"),
    "recovery.maybe": ("mid", "attempts"),
    # -- replication/ -------------------------------------------------------
    "kv.invoke": ("mid", "seq", "op", "key", "token"),
    "kv.result": (
        "mid", "seq", "op", "key", "status", "version", "token", "wtoken",
        "invoked_at",
    ),
    "kv.apply": (
        "mid", "index", "epoch", "op", "key", "token", "version", "applied",
    ),
    "kv.sync": ("mid", "from_index", "appended", "length"),
    "kv.recover": ("mid", "epoch", "entries", "commit", "clean", "source"),
    "kv.promote": ("mid", "epoch", "length"),
    "kv.demote": ("mid", "epoch"),
    "kv.takeover": ("mid", "epoch"),
    "kv.takeover_sent": ("mid", "target", "candidates"),
    "kv.error": ("mid", "reason", "index", "commit"),
}

#: category -> (its row's one ``{field: position}`` dict, shared by every
#: record of the category — what ``rec["tid"]`` looks a name up in — and
#: the row's length).
_LAYOUT: Dict[str, Tuple[Dict[str, int], int]] = {
    category: ({name: pos for pos, name in enumerate(row)}, len(row))
    for category, row in TRACE_SCHEMA.items()
}


class TraceRecord:
    """One structured trace entry: a tuple of values laid out by its
    category's :data:`TRACE_SCHEMA` row.

    ``index`` is the row's shared ``{field: position}`` dict, so a
    record owns one small object and one tuple.  A field holding
    ``None`` is *absent*: :meth:`get` returns its default for it and
    :attr:`fields` leaves it out; only ``rec[name]`` shows the ``None``.

    ``TraceRecord(time, category, {...})`` is the keyword form — test
    fixtures and :func:`repro.netreal.trace_io.load_trace` use it — and
    lays the dict out by the row (a field the row does not have is an
    error); a category outside the table is laid out by an index of its
    own, in the dict's order.
    """

    __slots__ = ("time", "category", "index", "values")

    def __init__(
        self, time: float, category: str, fields: Optional[Dict[str, Any]] = None
    ) -> None:
        if fields is None:
            fields = {}
        if category not in _LAYOUT:
            index = {name: pos for pos, name in enumerate(fields)}
            values = tuple(fields.values())
        else:
            index = _LAYOUT[category][0]
            if not fields.keys() <= index.keys():
                raise ValueError(
                    f"{category} has no field "
                    f"{sorted(fields.keys() - index.keys())}; its row is "
                    f"{TRACE_SCHEMA[category]}"
                )
            values = tuple(map(fields.get, index))
        self.time = time
        self.category = category
        self.index = index
        self.values = values

    @property
    def fields(self) -> Dict[str, Any]:
        return {
            name: value
            for name, value in zip(self.index, self.values)
            if value is not None
        }

    def __getitem__(self, key: str) -> Any:
        return self.values[self.index[key]]

    def get(self, key: str, default: Any = None) -> Any:
        try:
            value = self.values[self.index[key]]
        except KeyError:
            return default
        return default if value is None else value

    def __eq__(self, other: object) -> bool:
        # Compared by value, hence (Python's rule) unhashable.
        if other.__class__ is not TraceRecord:
            return NotImplemented
        if self.time != other.time or self.category != other.category:
            return False
        if self.index is other.index:
            return self.values == other.values
        return self.fields == other.fields

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"fields={self.fields!r})"
        )


#: :meth:`Tracer.record` already holds the laid-out tuple, so it fills
#: the four slots itself instead of going through ``__init__``.
_new_record = TraceRecord.__new__


class Tracer:
    """Structured event log with counters.

    Tracing is cheap but not free; large benchmark runs can disable record
    retention (``keep_records=False``) and still use counters.  A run too
    long to retain is judged by sinks instead.

    Sinks (:meth:`add_sink`) stream every record to a live consumer —
    a :class:`SinkTable` or the invariant checker — independent of
    retention.  With no sinks installed the per-record
    cost is a single falsy check.
    """

    def __init__(self, keep_records: bool = True) -> None:
        self.keep_records = keep_records
        self.records: List[TraceRecord] = []
        self.counters: Counter = Counter()
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

    def retained(self) -> List[TraceRecord]:
        """:attr:`records`, for a post-hoc pass over a finished run — an
        error on a counters-only tracer, whose empty list would be judged
        clean vacuously."""
        if not self.keep_records:
            raise ValueError(
                f"a counters-only trace kept none of the "
                f"{sum(self.counters.values())} records emitted: a post-hoc "
                f"pass would judge an empty run; install() the sink on the "
                f"tracer before running"
            )
        return self.records

    def add_sink(self, sink: Callable[[TraceRecord], None]) -> None:
        """Stream every future record to ``sink`` (live metrics)."""
        self._sinks.append(sink)
        self._passive = False

    def remove_sink(self, sink: Callable[[TraceRecord], None]) -> None:
        self._sinks.remove(sink)
        self._passive = not self.keep_records and not self._sinks

    def record(
        self, time: float, category: str, *values: Any, **fields: Any
    ) -> None:
        """Emit one record: ``values`` are the category's
        :data:`TRACE_SCHEMA` row, in row order — the form every emitter
        under ``src/`` uses; the record keeps the call's own argument
        tuple.  ``**fields`` is :class:`TraceRecord`'s keyword form, for
        fixtures."""
        self.counters[category] += 1
        if self._passive:
            return
        if fields or category not in _LAYOUT:
            arity = 0
            entry = TraceRecord(time, category, fields)
        else:
            entry = _new_record(TraceRecord)
            entry.time = time
            entry.category = category
            entry.index, arity = _LAYOUT[category]
            entry.values = values
        if len(values) != arity:
            raise TypeError(
                f"record({category!r}) got {len(values)} positional "
                f"value(s){' and keywords' if fields else ''}; its "
                f"TRACE_SCHEMA row is {TRACE_SCHEMA.get(category)}"
            )
        if self.keep_records:
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

    def last(self, category: str) -> Optional[TraceRecord]:
        for record in reversed(self.records):
            if record.category == category:
                return record
        return None

    def reset(self) -> None:
        self.records.clear()
        self.counters.clear()


class SinkTable:
    """The one way a record reaches an observer: a ``{category:
    (handlers…)}`` table over the ``HANDLERS`` rows of its sinks.  A
    record reaches the sinks that read its category, once, and nobody
    keeps it (DESIGN.md §14).  :meth:`install` streams a live run
    through the table; :meth:`replay` feeds it a retained or merged
    trace."""

    def __init__(self, *sinks) -> None:
        rows: Dict[str, Tuple[Callable, ...]] = {}
        for sink in sinks:
            for category, handler in sink.HANDLERS.items():
                rows[category] = rows.get(category, ()) + (
                    MethodType(handler, sink),
                )
        self._rows = rows.get
        self.records_fed = 0
        self.end_time = 0.0

    def install(self, net) -> "SinkTable":
        """Attach to ``net``'s tracer, which must not have emitted yet:
        a judge that joins late would pass on what it did not see."""
        emitted = sum(net.sim.trace.counters.values())
        if emitted:
            raise RuntimeError(
                f"{emitted} record(s) were emitted before the sinks "
                f"were installed; live judging must see the whole run"
            )
        net.sim.trace.add_sink(self.feed)
        return self

    def feed(self, rec: TraceRecord) -> None:
        self.records_fed += 1
        self.end_time = rec.time
        for handler in self._rows(rec.category, ()):
            handler(rec)

    def replay(self, records: Iterable[TraceRecord]) -> None:
        """:meth:`feed` every record of ``records``, in order."""
        rows = self._rows
        fed = 0
        rec = None
        for rec in records:
            fed += 1
            for handler in rows(rec.category, ()):
                handler(rec)
        if rec is not None:
            self.records_fed += fed
            self.end_time = rec.time


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
