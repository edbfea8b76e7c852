"""Per-process JSONL traces and the wall-clock merge.

Each node process dumps its :class:`~repro.sim.tracing.Tracer` records
to one JSONL file: a ``meta`` header line (mid, seed, ledger snapshot,
policy name), then one ``{"t": ..., "c": ..., "f": {...}}`` line per
record.  The parent merges the files into a single stream ordered by
``(time, process, arrival)`` — records within one process keep their
emission order even when wall-clock floats tie, and across processes
the shared CLOCK_MONOTONIC epoch makes plain time comparable.

Timestamp typing is preserved exactly (the satellite fix of ISSUE 7):
simulated traces carry integer-valued microseconds, wall-clock traces
arbitrary floats, and JSON keeps ``int`` vs ``float`` distinct in both
directions — nothing in this path (or in the invariant checker and span
builder downstream, see tests/netreal/test_trace_io.py) coerces through
``int()``, which would silently collapse sub-microsecond wall-clock
orderings.

Field values must be JSON-representable.  Kernel trace records only
carry scalars (MIDs, tids, byte counts, status strings); anything else
is rejected loudly at dump time rather than corrupted quietly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.sim.tracing import CostLedger, TraceRecord

PathLike = Union[str, Path]


def dump_trace(
    path: PathLike,
    records: Iterable[TraceRecord],
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one process's records (plus a meta header) as JSONL."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as fh:
        header = {"kind": "meta"}
        header.update(meta or {})
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            fh.write(
                json.dumps(
                    {
                        "t": record.time,
                        "c": record.category,
                        "f": record.fields,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return target


def load_trace(
    path: PathLike,
) -> Tuple[Dict[str, Any], List[TraceRecord]]:
    """Read one JSONL trace back; returns ``(meta, records)``.

    A writer killed mid-dump leaves a torn file.  Reading stops at the
    first line that does not decode, and a file that stopped there — or
    that holds fewer records than its header's ``"records"`` promises
    (a cut between lines) — comes back with ``meta["torn"]`` set to the
    number of records that did load.
    """
    meta: Dict[str, Any] = {}
    records: List[TraceRecord] = []
    torn = False
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                torn = True
                break
            if entry.get("kind") == "meta":
                meta = entry
                continue
            records.append(
                TraceRecord(entry["t"], entry["c"], entry.get("f", {}))
            )
    if torn or meta.get("records", len(records)) != len(records):
        meta["torn"] = len(records)
    return meta, records


def merge_records(
    streams: Sequence[Sequence[TraceRecord]],
) -> List[TraceRecord]:
    """Merge per-process record streams into one wall-clock timeline.

    Each input stream must already be in emission order (a Tracer's
    retained records are).  The sort key is ``(time, stream index,
    position)``: time orders across processes, and the two tiebreakers
    keep the merge deterministic and stable without ever rounding a
    timestamp.
    """
    keyed = (
        ((record.time, index, position), record)
        for index, stream in enumerate(streams)
        for position, record in enumerate(stream)
    )
    # Each per-stream subsequence is sorted by construction; a full sort
    # is simplest and the key already makes it total.
    return [record for _, record in sorted(keyed, key=lambda item: item[0])]


def merge_traces(
    paths: Sequence[PathLike],
) -> Tuple[List[Dict[str, Any]], List[TraceRecord], CostLedger]:
    """Load and merge several trace files.

    Returns ``(metas, merged records, pooled ledger)`` — the pooled
    ledger sums every process's cost-category charges so INV-LEDGER
    still audits the merged run.
    """
    metas: List[Dict[str, Any]] = []
    streams: List[List[TraceRecord]] = []
    ledger = CostLedger()
    for path in paths:
        meta, records = load_trace(path)
        metas.append(meta)
        streams.append(records)
        for category, charge_us in (meta.get("ledger") or {}).items():
            ledger.charge(category, charge_us)
    return metas, merge_records(streams), ledger


__all__ = [
    "dump_trace",
    "load_trace",
    "merge_records",
    "merge_traces",
]
