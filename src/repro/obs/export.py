"""Exporters: console tables, JSONL, and ``BENCH_*.json`` snapshots.

All writers are deterministic — keys sorted, no wall-clock timestamps —
so two runs with the same seed produce byte-identical files, and the
``BENCH_*.json`` trajectory at the repo root can be diffed commit to
commit.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.bench.tables import format_table
from repro.obs.spans import TransactionSpan

#: Schema tag stamped into every benchmark snapshot.
BENCH_SCHEMA = "soda.bench/1"

PathLike = Union[str, Path]


def snapshot_payload(
    kind: str,
    body: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Wrap a result body in the snapshot envelope."""
    return {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "meta": meta or {},
        "body": body,
    }


#: Stands in for each row of a body's ``rows`` while the rest is laid out.
_ROW = "\0row"


def serialize_snapshot(payload: Dict[str, Any]) -> str:
    """The exact text of a snapshot file (sorted keys, trailing newline).

    A body whose ``rows`` is a mapping (``bench chaos``, ``chaos
    --json``) keeps one compact row per line, so a row that changes is
    one changed line of the diff; a ``rows`` list is laid out like any
    other value."""
    body = payload["body"]
    rows = body.get("rows")
    rows = rows if isinstance(rows, dict) else {}
    stub = {**body, "rows": dict.fromkeys(rows, _ROW)} if rows else body
    text = json.dumps({**payload, "body": stub}, sort_keys=True, indent=2)
    compact = (
        json.dumps(rows[key], sort_keys=True, separators=(",", ":"))
        for key in sorted(rows)
    )
    return re.sub(re.escape(json.dumps(_ROW)), lambda _: next(compact), text) + "\n"


def write_snapshot(path: PathLike, payload: Dict[str, Any]) -> Path:
    """Write one JSON snapshot."""
    target = Path(path)
    target.write_text(serialize_snapshot(payload), encoding="utf-8")
    return target


def emit_snapshot(
    path: PathLike,
    kind: str,
    body: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
    out=print,
) -> Path:
    """Envelope + write + announce, in one call.

    The single construction site for every ``BENCH_*.json`` emitter
    (CLI subcommands, the benchmark suite's terminal hook, the real
    runner): wraps ``body`` via :func:`snapshot_payload`, writes it with
    :func:`write_snapshot`, and reports ``wrote <path>`` through
    ``out``.
    """
    target = write_snapshot(path, snapshot_payload(kind, body, meta))
    out(f"wrote {target}")
    return target


def write_metrics_jsonl(
    path: PathLike, snapshot: Dict[str, Dict[str, Any]]
) -> Path:
    """One metric per line: ``{"name": ..., "type": ..., ...}``."""
    lines = []
    for name in sorted(snapshot):
        entry = {"name": name}
        entry.update(snapshot[name])
        lines.append(json.dumps(entry, sort_keys=True))
    target = Path(path)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


def _fmt(value: Any) -> Any:
    if value is None:
        return "-"
    if isinstance(value, float):
        return round(value, 3)
    return value


def render_metrics(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Console rendering: one table of scalars, one of histograms."""
    scalars = []
    histograms = []
    for name in sorted(snapshot):
        data = snapshot[name]
        if data["type"] == "histogram":
            histograms.append(
                (
                    name,
                    data["count"],
                    _fmt(data["p50"]),
                    _fmt(data["p90"]),
                    _fmt(data["p99"]),
                    _fmt(data["max"]),
                )
            )
        else:
            scalars.append((name, data["type"], _fmt(data["value"])))
    parts: List[str] = []
    if scalars:
        parts.append(
            format_table(
                ["metric", "type", "value"], scalars, title="Metrics"
            )
        )
    if histograms:
        parts.append(
            format_table(
                ["histogram", "count", "p50", "p90", "p99", "max"],
                histograms,
                title="Latency distributions",
            )
        )
    return "\n\n".join(parts)


def render_span_table(
    spans: Iterable[TransactionSpan], limit: int = 20
) -> str:
    """The first ``limit`` spans as a console table."""
    rows = []
    for span in list(spans)[:limit]:
        rows.append(
            (
                f"<{span.requester_mid},#{span.tid}>",
                span.verb,
                span.status,
                _fmt(span.request_us / 1000.0),
                _fmt(
                    None
                    if span.latency_us is None
                    else span.latency_us / 1000.0
                ),
                span.busy_nacks,
            )
        )
    return format_table(
        ["span", "verb", "status", "t0 ms", "latency ms", "busy"],
        rows,
        title="Transaction spans",
    )
