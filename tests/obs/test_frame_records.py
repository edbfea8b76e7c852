"""What a trace record is, row by row and field by field.

``repro.sim.tracing.TRACE_SCHEMA`` states the layout of every category
emitted under ``src/`` (DESIGN.md §15); this file holds it to that:

* every record a run emits is laid out by its row — one shared index
  dict per category, one value per field — over the chaos gate cells
  plus a cell for each workload family the gate leaves out;
* ``READERS`` names, for every ``(category, field)``, the module under
  ``src/repro`` that reads it, or ``human`` for a field nothing under
  ``src/`` reads, kept for trace dumps (``netreal/trace_io.py`` JSONL,
  ``repr``) and for tests that filter on it.  A
  field added to a row must be added here with its reader beside it;
  a field whose reader goes away shows up as a stale literal;
* every ``.record(`` call under ``src/repro`` is positional, names a
  tabled category literally and passes the whole row;
* a record stays one slotted object plus one tuple.

The per-frame rows (``kernel.tx``, ``kernel.rx``, ``conn.acked``,
``net.drop``, ``net.replay``) are the ones paid for on every wire frame
(DESIGN.md §12); ``EVENTS_PER_FRAME_MAX`` and ``RECORDS_PER_FRAME_MAX``
keep what a frame costs on a KV cell.  They were ``bench sim``'s
``frame_cost`` verdicts (``tests/bench/test_sim_bench.py::
test_frame_cost_counts_and_verdicts``), counted here on cells the
fixture already runs; CI's "Traced kv_faults" ``perf-smoke`` step gates
the same ceilings on ``perf/``'s ``kv_faults``.
"""

import ast
import sys
from pathlib import Path

import pytest

import repro
from repro.workloads import build_workload
from repro.chaos.scenario import chaos_config, make_schedule
from repro.sim.tracing import TRACE_SCHEMA, TraceRecord, Tracer
from tests.test_chaos import GATE_CELLS

SRC = Path(repro.__file__).parent

HUMAN = "human"
INVARIANTS = "analysis/invariants.py"
#: Reads ``mid`` off *every* record that has one: the process an event
#: belongs to in the causal order; and the fields the race rules read.
CAUSAL = "analysis/causal/sink.py"
SPANS = "obs/spans.py"
HUB = "obs/instrument.py"
KV = "replication/consistency.py"
SELF_HEAL = "recovery/convergence.py"
DETECTOR = "recovery/detector.py"

READERS = {
    "kernel.tx": {
        "mid": INVARIANTS,  # _on_tx connection key
        "dst": INVARIANTS,  # _on_tx connection key; causal broadcast edge
        "ptype": HUMAN,  # tests/core filter probes and discover replies
        "bytes": INVARIANTS,  # INV-DELTAT retry-window bound per data byte
        "seq": INVARIANTS,  # INV-SEQ
        "pid": INVARIANTS,  # INV-SEQ / INV-DELTAT / SODA007 packet identity
        "tid": INVARIANTS,  # SODA007 matches a BUSY hint to its REQUEST
        "ack": HUMAN,
        "fid": CAUSAL,  # joins this tx to its kernel.rx
        "epoch": HUMAN,  # probe replies only
    },
    "kernel.rx": {
        "mid": INVARIANTS,
        "src": INVARIANTS,
        "ptype": HUMAN,
        "seq": HUMAN,
        "tid": INVARIANTS,  # SODA007 hint matching
        "ack": HUMAN,
        "nack": INVARIANTS,  # 'busy' opens the slow-retry regime
        "hint": INVARIANTS,  # SODA007
        "fid": CAUSAL,  # joins this rx to its kernel.tx
        "epoch": HUMAN,
    },
    "kernel.request": dict.fromkeys(
        ("mid", "tid", "dst", "pattern", "put", "get"), SPANS
    ),
    "kernel.accept": {
        "mid": CAUSAL,
        "sig": HUMAN,
        "src": SPANS,
        "tid": SPANS,
        "wait": HUMAN,
        "taken_put": HUMAN,
        "taken_get": HUMAN,
    },
    "kernel.complete": {
        "mid": SPANS,
        "tid": SPANS,
        "status": SPANS,
        "arg": HUMAN,
        "taken_put": HUMAN,
        "taken_get": HUMAN,
        "reason": HUMAN,
        "not_executed": HUMAN,
    },
    "kernel.crash_report": {
        "mid": CAUSAL,
        "peer": DETECTOR,
        "tid": HUMAN,
        "status": HUMAN,
        "reason": HUB,  # recovery.crash_reports.<reason>
        "not_executed": HUMAN,
    },
    "kernel.cancelled": {"mid": SPANS, "tid": SPANS},
    "kernel.delivered_state": dict.fromkeys(
        ("mid", "src", "tid", "state"), INVARIANTS
    ),
    "kernel.hold": {"mid": CAUSAL, "src": HUMAN, "tid": HUMAN},
    "kernel.busy_nack": {
        "mid": CAUSAL,
        "src": SPANS,
        "tid": SPANS,
        "hint_us": HUMAN,
        "hold_expired": HUMAN,
    },
    "kernel.shed": {
        "mid": CAUSAL, "src": HUMAN, "tid": HUMAN, "occupancy_us": HUMAN,
    },
    "kernel.interrupt": {"mid": HUB, "reason": HUB},
    "kernel.boot_handler": {"mid": DETECTOR},
    "kernel.endhandler": {"mid": HUB},  # kernel.handler_occupancy_us
    "kernel.advertise": {"mid": CAUSAL, "pattern": CAUSAL},
    "kernel.unadvertise": {"mid": CAUSAL, "pattern": CAUSAL},
    "kernel.boot_granted": {"mid": CAUSAL, "parent": HUMAN},
    "kernel.boot_start": {"mid": CAUSAL, "parent": HUMAN},
    "kernel.die": {"mid": DETECTOR},
    "kernel.client_reset": {"mid": CAUSAL, "epoch": CAUSAL},
    "kernel.crash": {"mid": DETECTOR, "quiet_us": HUMAN},
    "kernel.recovered": {"mid": CAUSAL},
    "conn.acked": {
        "mid": CAUSAL,  # SODA012
        "peer": CAUSAL,
        "kind": HUB,  # transport.rtt_us.<kind>
        "attempts": HUB,  # transport.attempts_to_ack
        "rtt_us": HUB,  # transport.rtt_us; bench.real mean RTT
        "policy": HUB,  # transport.attempts_to_ack.policy.<policy>
    },
    "conn.retransmit": {
        "mid": CAUSAL,
        "peer": CAUSAL,
        "kind": HUB,
        "attempt": HUMAN,
        "waited_us": "bench/real.py",
    },
    "conn.spurious_retransmit": {
        "mid": CAUSAL, "peer": CAUSAL, "kind": HUB, "attempts": HUMAN,
    },
    "conn.peer_dead": {"mid": INVARIANTS, "peer": INVARIANTS, "kind": HUMAN},
    "conn.busy_retry": {"mid": CAUSAL, "peer": CAUSAL, "attempt": HUMAN},
    "conn.seq_swap": {
        "mid": INVARIANTS,
        "peer": INVARIANTS,
        "parked_pid": INVARIANTS,
        "taker_pid": HUMAN,
        "seq": HUMAN,
    },
    "conn.resync": {
        "mid": CAUSAL, "peer": HUMAN, "pid": HUMAN, "seq": HUMAN,
    },
    # One per *discarded* / replayed delivery, emitted from the bus's
    # per-frame path; counted (bus.frames_dropped), never read.
    "net.tx": dict.fromkeys(("src", "dst", "bytes", "frame_id"), HUMAN),
    "net.drop": dict.fromkeys(("src", "dst", "frame_id"), HUMAN),
    "net.replay": dict.fromkeys(("src", "dst", "frame_id", "kind"), HUMAN),
    "netreal.decode_error": {"mid": CAUSAL, "octets": HUMAN, "error": HUMAN},
    "recovery.suspect": {
        "mid": CAUSAL, "service_mid": HUMAN, "service": HUMAN, "misses": HUMAN,
    },
    "recovery.crash_detected": {
        "mid": CAUSAL, "service_mid": SELF_HEAL, "service": HUMAN,
    },
    "recovery.escalated": {
        "mid": CAUSAL,
        "service_mid": SELF_HEAL,
        "service": HUMAN,
        "restarts": HUMAN,
    },
    "recovery.reboot_attempt": {
        "mid": CAUSAL,
        "service_mid": HUMAN,
        "service": HUMAN,
        "attempt": HUMAN,
        "ok": HUMAN,
    },
    "recovery.reboot": {
        "mid": CAUSAL, "service_mid": HUMAN, "service": HUMAN,
    },
    "recovery.restored": {
        "mid": CAUSAL, "service_mid": SELF_HEAL, "service": HUMAN,
    },
    "recovery.retry": {
        "mid": CAUSAL, "target": HUMAN, "attempt": HUMAN, "reason": HUMAN,
    },
    "recovery.maybe": {"mid": CAUSAL, "attempts": HUMAN},
    # Counted by KvSink (ops_invoked); its fields are for the reader of
    # a dump pairing an invoke with its kv.result.
    "kv.invoke": {
        "mid": CAUSAL, "seq": HUMAN, "op": HUMAN, "key": HUMAN, "token": HUMAN,
    },
    "kv.result": dict.fromkeys(
        ("mid", "seq", "op", "key", "status", "version", "token", "wtoken",
         "invoked_at"),
        KV,
    ),
    "kv.apply": dict.fromkeys(
        ("mid", "index", "epoch", "op", "key", "token", "version", "applied"),
        KV,
    ),
    "kv.sync": {
        "mid": CAUSAL, "from_index": HUMAN, "appended": HUMAN, "length": HUMAN,
    },
    "kv.recover": {
        "mid": CAUSAL,
        "epoch": HUMAN,
        "entries": HUMAN,  # tests/durability: recovery came from disk
        "commit": HUMAN,
        "clean": HUMAN,
        "source": HUMAN,  # tests/durability, tests/netreal
    },
    "kv.promote": {"mid": "bench/kv.py", "epoch": HUMAN, "length": HUMAN},
    "kv.demote": {"mid": CAUSAL, "epoch": HUMAN},
    "kv.takeover": {"mid": CAUSAL, "epoch": HUMAN},
    "kv.takeover_sent": {"mid": CAUSAL, "target": HUMAN, "candidates": HUMAN},
    "kv.error": {
        "mid": CAUSAL, "reason": HUMAN, "index": HUMAN, "commit": HUMAN,
    },
}

#: The gate cells, the two families the gate has no cell for, and the
#: two cells that lose and replay deliveries on every run.
CELLS = GATE_CELLS + [
    ("stream", "calm"),
    ("queued", "calm"),
    ("echo", "sustained_loss"),
    ("kvstore_supervised", "duplicate"),
]

#: Emitted once per wire frame or per delivery (module docstring).
PER_FRAME = ("kernel.tx", "kernel.rx", "conn.acked", "net.drop", "net.replay")

#: Most scheduled events and trace records one wire frame may cost on a
#: KV cell: 7.385 and 5.699 when first gated, + 5 % (8.369 and 6.699
#: while every frame had a finish event and a ``net.tx`` record).
#: ``kvstore_supervised/primary_crash_load`` at seed 1 is 8 112 events,
#: 1 090 frames and 5 699 records: 7.442 and 5.228 since a calm KV
#: primary runs one idle round per quiet period (DESIGN.md §16).
EVENTS_PER_FRAME_MAX = 7.75
RECORDS_PER_FRAME_MAX = 5.99

#: The KV cells of ``CELLS`` whose frames are priced.
KV_CELLS = [
    ("kvstore_supervised", "primary_crash_load"),
    ("kvstore_supervised", "duplicate"),
]


def run(workload, schedule, seed=1):
    built = build_workload(workload, seed=seed, config=chaos_config())
    make_schedule(schedule, built.spec).run(built)
    return built.net


@pytest.fixture(scope="module")
def cells():
    return {cell: run(*cell) for cell in CELLS}


def test_per_frame_records_carry_exactly_the_pinned_fields(cells):
    indexes = {}
    for cell, net in cells.items():
        for rec in net.sim.trace.records:
            row = TRACE_SCHEMA[rec.category]
            # One index dict per category — never one per record — and
            # it is the row: names in order, positions 0..n-1.
            index = indexes.setdefault(rec.category, rec.index)
            assert rec.index is index, (cell, rec)
            assert tuple(index) == row
            assert tuple(index.values()) == tuple(range(len(row)))
            assert len(rec.values) == len(row), (cell, rec)
    # Every cell loses or replays some delivery somewhere, so every
    # per-frame row was exercised.
    assert set(PER_FRAME) <= set(indexes)


def test_the_simulated_bus_emits_no_net_tx(cells):
    # frames_sent / bytes_sent carry the totals; netreal's UdpMedium
    # keeps its own net.tx (tests/netreal/test_loopback.py).
    for net in cells.values():
        assert net.bus.frames_sent > 0
        assert net.sim.trace.count("net.tx") == 0
        assert not any(r.category == "net.tx" for r in net.sim.trace.records)


def over_frame_budget(events, records, frames):
    """Which per-frame ceiling ``events`` and ``records`` break."""
    return [
        name
        for name, count, ceiling in (
            ("events", events, EVENTS_PER_FRAME_MAX),
            ("records", records, RECORDS_PER_FRAME_MAX),
        )
        if count / frames > ceiling
    ]


def test_kv_cell_keeps_its_records_per_frame(cells):
    for cell in KV_CELLS:
        net = cells[cell]
        events = net.sim.events_processed
        records = len(net.sim.trace.records)
        frames = net.bus.frames_sent
        assert over_frame_budget(events, records, frames) == [], (
            cell, events / frames, records / frames
        )
    # Each ceiling bites alone: a third of an event or a whole record
    # more per frame on the last cell.
    assert over_frame_budget(events + frames // 3, records, frames) == ["events"]
    assert over_frame_budget(events, records + frames, frames) == ["records"]


def test_every_field_names_its_reader():
    assert {c: tuple(fields) for c, fields in READERS.items()} == TRACE_SCHEMA
    sources = {}
    for category, fields in READERS.items():
        for name, reader in fields.items():
            # A field may not shadow the record's own time and category.
            assert name not in ("time", "category"), category
            if reader == HUMAN:
                continue
            source = sources.setdefault(reader, (SRC / reader).read_text())
            assert f'"{name}"' in source or f"'{name}'" in source, (
                f"{category}.{name}: {reader} no longer mentions it"
            )


def test_every_emitter_is_positional_and_in_the_table():
    calls = 0
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
            ):
                continue
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            assert not node.keywords, f"{where}: keyword emission"
            category = node.args[1]
            assert isinstance(category, ast.Constant), where
            row = TRACE_SCHEMA.get(category.value)
            assert row is not None, f"{where}: {category.value!r} not tabled"
            # The whole row, or the bare count-only call a hot emitter
            # makes while the tracer is passive.
            assert len(node.args) - 2 in (0, len(row)), where
            calls += 1
    assert calls >= len(TRACE_SCHEMA)


def test_a_record_is_one_small_object_and_one_tuple():
    def size(category):
        tracer = Tracer()
        row = TRACE_SCHEMA[category]
        tracer.record(1000, category, *range(len(row)))
        (rec,) = tracer.records
        assert not hasattr(rec, "__dict__")
        return sys.getsizeof(rec) + sys.getsizeof(rec.values)

    assert size("kernel.tx") <= 200
    assert size("kernel.endhandler") <= 130


def test_record_rejects_what_the_table_does_not_hold():
    tracer = Tracer()
    with pytest.raises(TypeError):
        tracer.record(0, "kernel.endhandler")  # a row of one, none given
    with pytest.raises(TypeError):
        tracer.record(0, "kernel.endhandler", 1, 2)
    with pytest.raises(TypeError):
        tracer.record(0, "kernel.endhandlr", 1)  # misspelt category
    with pytest.raises(TypeError):
        tracer.record(0, "kernel.cancelled", 1, tid=2)  # one form or the other
    with pytest.raises(ValueError):
        tracer.record(0, "kernel.endhandler", middle=1)  # misspelt field
    with pytest.raises(ValueError):
        TraceRecord(0, "kernel.endhandler", {"middle": 1})
    assert not tracer.records
    # While nothing consumes fields a hot emitter calls bare.
    passive = Tracer(keep_records=False)
    passive.record(0, "kernel.tx")
    assert passive.count("kernel.tx") == 1
