"""Unit tests for RNG streams, tracing and the cost ledger.

The tracer keeps every record or none; its ring-buffer mode is gone, and
with it five tests (``test_ring_buffer_keeps_recent_records``,
``…_not_truncated_until_full``, ``…_reset_clears_drops``,
``…_rejects_nonpositive_size``, ``test_sink_sees_all_records_despite_ring``).
What a ring was for — judging a run too long to keep — is a live sink's
job (test_soak::test_whole_system_soak); a counters-only trace refuses a
post-hoc pass
(test_live_judging::test_post_hoc_judge_refuses_a_partial_trace); a sink
sees every record until removed, retained or not
(``test_sink_sees_every_record_until_removed``).

A tracer has one reader, the ``SinkTable`` installed on it; its generic
list of sink callables is gone.  The three tests that
attached a bare callable now install a one-row table:
``test_sink_sees_every_record_until_removed`` uninstalls it,
``test_sink_works_without_record_retention`` is unchanged in claim, and
``test_counters_only_tracing_makes_fewer_calls`` pins that a table builds
only the records its rows read.

``sim/clock.py`` (unit conversions nothing under ``src/`` called) is
gone, and its two tests with it: ``test_unit_conversions`` and
``test_format_us_scales`` — behaviour removed.

``bench sim``'s ``trace_overhead`` verdict (part of
``tests/bench/test_sim_bench.py::test_body_shape_and_positive_rates``:
a counters-only run processes the same events in fewer Python calls)
is ``test_counters_only_tracing_makes_fewer_calls``; what either mode
costs in wall clock is ``perf/``'s ``trace.overhead_ratio``.
"""

import cProfile
import pstats
import random

import pytest

from repro.core.node import Network
from repro.sim.rng import RngStreams
from repro.sim.tracing import CostLedger, SinkTable, TraceRecord, Tracer


# -- RNG ------------------------------------------------------------------


def test_streams_are_reproducible():
    a = RngStreams(5).stream("x")
    b = RngStreams(5).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_streams_are_independent_by_name():
    streams = RngStreams(5)
    seq_x = [streams.stream("x").random() for _ in range(5)]
    streams2 = RngStreams(5)
    # Interleave draws from another stream; "x" must be unaffected.
    for _ in range(3):
        streams2.stream("y").random()
    seq_x2 = [streams2.stream("x").random() for _ in range(5)]
    assert seq_x == seq_x2


def test_binding_a_stream_early_draws_what_looking_it_up_each_time_does():
    # The bus and each connection bind their jitter streams once, at
    # construction; they used to look them up by name at every draw,
    # i.e. create them later, after other streams had been drawn from.
    early = RngStreams(5)
    bound = early.stream("rexmit.0")
    late = RngStreams(5)
    draws_early, draws_late = [], []
    for round_ in range(5):
        early.stream(f"other.{round_}").random()
        late.stream(f"other.{round_}").random()
        draws_early.append(bound.random())
        draws_late.append(late.stream("rexmit.0").random())
    assert draws_early == draws_late
    assert early.stream("rexmit.0") is bound


def test_different_seeds_differ():
    assert RngStreams(1).stream("x").random() != RngStreams(2).stream("x").random()


def test_chance_extremes():
    streams = RngStreams(0)
    assert not streams.chance("c", 0.0)
    assert streams.chance("c", 1.0)


def test_uniform_within_bounds():
    streams = RngStreams(0)
    for _ in range(100):
        value = streams.uniform("u", 3.0, 7.0)
        assert 3.0 <= value <= 7.0


# -- Tracer -----------------------------------------------------------------


def test_tracer_counts_and_records():
    tracer = Tracer()
    tracer.record(1.0, "pkt", kind="a")
    tracer.record(2.0, "pkt", kind="b")
    tracer.record(3.0, "other")
    assert tracer.count("pkt") == 2
    assert len(tracer.select("pkt")) == 2
    assert tracer.select("pkt", kind="b")[0].time == 2.0


def test_tracer_last():
    tracer = Tracer()
    tracer.record(1.0, "x", n=1)
    tracer.record(2.0, "x", n=2)
    assert tracer.last("x")["n"] == 2
    assert tracer.last("missing") is None


def test_tracer_without_records_still_counts():
    tracer = Tracer(keep_records=False)
    tracer.record(1.0, "x")
    assert tracer.count("x") == 1
    assert tracer.records == []


class Seen:
    """A one-row sink: every record of ``category``, in order."""

    def __init__(self, category):
        self.HANDLERS = {category: Seen.see}
        self.seen = []

    def see(self, rec):
        self.seen.append(rec)


def _stream_run(keep_trace, category=None):
    """``(events, records emitted, Python calls, records the one-row
    table over ``category`` saw)`` of one ``stream`` run under cProfile."""
    from repro.workloads import build_workload

    built = build_workload("stream", keep_trace=keep_trace)
    trace = built.net.sim.trace
    sink = Seen(category)
    if category is not None:
        SinkTable(sink).install(built.net)
    profiler = cProfile.Profile()
    profiler.enable()
    built.net.run(until=built.spec.until_us)
    profiler.disable()
    calls = pstats.Stats(profiler).total_calls
    return (
        built.net.sim.events_processed,
        sum(trace.counters.values()),
        calls,
        len(sink.seen),
    )


def test_counters_only_tracing_makes_fewer_calls():
    """With no retention and no table a record is one counter bump: the
    same events for at least one call fewer per record (344 events, 318
    records; ~11 700 calls traced, ~10 750 counters-only on CPython
    3.11, give or take a few dozen with what the process ran before).
    A table on the counters-only tracer builds the records its rows read
    and no other: one row over ``kernel.tx`` gives back the saving on
    those records only."""
    events, records, traced, _ = _stream_run(True)
    counters_only = _stream_run(False)
    one_row = _stream_run(False, "kernel.tx")
    read = one_row[3]
    assert counters_only[:2] == one_row[:2] == (events, records)
    assert 0 < read < records
    assert traced - counters_only[2] >= records
    assert traced - one_row[2] >= records - read
    assert one_row[2] - counters_only[2] >= read


def test_tracer_reset():
    tracer = Tracer()
    tracer.record(1.0, "x")
    tracer.reset()
    assert tracer.count("x") == 0
    assert tracer.records == []


def test_sink_sees_every_record_until_removed():
    net = Network(seed=1)
    tracer = net.sim.trace
    sink = Seen("x")
    table = SinkTable(sink).install(net)
    for i in range(4):
        tracer.record(float(i), "x", n=i)
    tracer.record(4.0, "y", n=4)
    assert [rec["n"] for rec in sink.seen] == [0, 1, 2, 3]
    assert table.records_fed == 5 and table.end_time == 4.0
    with pytest.raises(RuntimeError, match="already has a table"):
        SinkTable(Seen("x")).install(net)
    table.uninstall(net)
    tracer.record(5.0, "x", n=5)
    assert len(sink.seen) == 4 and len(tracer.records) == 6


def test_sink_works_without_record_retention():
    net = Network(seed=1, keep_trace=False)
    sink = Seen("x")
    SinkTable(sink).install(net)
    net.sim.trace.record(1.0, "x", n=1)
    assert net.sim.trace.records == []
    assert len(sink.seen) == 1 and sink.seen[0]["n"] == 1


def test_record_get_default():
    tracer = Tracer()
    tracer.record(1.0, "x", a=1)
    rec = tracer.records[0]
    assert rec["a"] == 1
    assert rec.get("b", "dflt") == "dflt"


def test_record_compares_by_value_and_prints_its_fields():
    rec = TraceRecord(1.5, "x", {"a": 1})
    assert rec == TraceRecord(1.5, "x", {"a": 1})
    assert rec != TraceRecord(1.5, "x", {"a": 2})
    assert rec != TraceRecord(1.5, "y", {"a": 1})
    assert rec != (1.5, "x", {"a": 1})
    assert repr(rec) == "TraceRecord(time=1.5, category='x', fields={'a': 1})"
    assert TraceRecord(0.0, "bare").fields == {}
    with pytest.raises(TypeError):
        hash(rec)
    # One allocation less per record: no instance dict.
    assert not hasattr(rec, "__dict__")


# -- CostLedger ---------------------------------------------------------------


def test_ledger_accumulates_and_totals():
    ledger = CostLedger()
    ledger.charge("protocol", 500.0)
    ledger.charge("protocol", 250.0)
    ledger.charge("transmission", 100.0)
    assert ledger.get("protocol") == 750.0
    assert ledger.total() == 850.0


def test_ledger_rejects_negative():
    with pytest.raises(ValueError):
        CostLedger().charge("protocol", -1.0)


def test_charge_packet_rejects_negative():
    for charges in ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.charge_packet(*charges)
        assert ledger.snapshot() == {}


def test_charge_packet_leaves_no_key_for_a_zero_charge():
    ledger = CostLedger()
    ledger.charge_packet(500.0, 250.0, 0.0)
    assert ledger.snapshot() == {"protocol": 500.0, "connection_timers": 250.0}
    ledger.charge_packet(0.0, 0.0, 350.0)
    assert list(ledger.snapshot()) == [
        "protocol", "connection_timers", "retransmit_timers"
    ]


def test_charge_packet_adds_what_three_charges_add():
    # Equal, not close: BENCH_obs.json's T4 breakdown is compared byte
    # for byte, and float addition is not associative.
    rng = random.Random(21)
    together, apart = CostLedger(), CostLedger()
    for _ in range(10_000):
        protocol_us = 500.0 + rng.choice((0.0, rng.uniform(0.0, 900.0)))
        timers_us = rng.choice((250.0, 0.0, rng.uniform(0.0, 300.0)))
        retransmit_us = rng.choice((0.0, 350.0, rng.uniform(0.0, 400.0)))
        together.charge_packet(protocol_us, timers_us, retransmit_us)
        for category, us in (
            ("protocol", protocol_us),
            ("connection_timers", timers_us),
            ("retransmit_timers", retransmit_us),
        ):
            if us:
                apart.charge(category, us)
    assert together.snapshot() == apart.snapshot()
    assert together.total() == apart.total()


def test_ledger_snapshot_diff():
    ledger = CostLedger()
    ledger.charge("protocol", 100.0)
    snap = ledger.snapshot()
    ledger.charge("protocol", 50.0)
    ledger.charge("context_switch", 25.0)
    diff = ledger.diff(snap)
    assert diff == {"protocol": 50.0, "context_switch": 25.0}


def test_ledger_reset():
    ledger = CostLedger()
    ledger.charge("protocol", 1.0)
    ledger.reset()
    assert ledger.total() == 0.0
