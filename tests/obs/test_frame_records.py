"""What the trace holds for every wire frame, field by field.

A record emitted once per frame is paid for once per frame — a kwargs
dict, a ``TraceRecord`` and the retained memory — on every traced run
(DESIGN.md §12).  This file pins those records: a field added to one of
them must be added here, with the code that reads it named beside it;
``human`` marks a field nothing under ``src/`` reads, kept for trace
dumps (``netreal/trace_io.py`` JSONL, ``repr``) and for tests that
filter on it.  It is the seed of one schema table for the whole trace
(ROADMAP item 5a), not that table.
"""

import pytest

from repro.analysis.workloads import build_workload
from repro.chaos.runner import chaos_config, make_schedule

PER_FRAME_RECORDS = {
    "kernel.tx": {
        "mid": "analysis.invariants _on_tx (connection "
               "key); causal.clocks (process); obs.instrument node.<mid>.*",
        "dst": "_on_tx (connection key); causal.clocks (broadcast edge); "
               "causal.races SODA012 last_tx",
        "ptype": "human; tests/core filter probes and discover replies on it",
        "bytes": "_on_tx -> INV-DELTAT retry-window bound per data byte",
        "seq": "_on_tx INV-SEQ",
        "pid": "_on_tx INV-SEQ / INV-DELTAT / SODA007 (packet identity)",
        "tid": "_on_tx -> SODA007 matches a BUSY hint to its REQUEST",
        "ack": "human",
        "fid": "causal.clocks: joins this tx to its kernel.rx",
    },
    "kernel.rx": {
        "mid": "invariants _on_rx (connection key); "
               "causal.clocks; obs.instrument node.<mid>.*",
        "src": "invariants _on_rx (connection key)",
        "ptype": "human",
        "seq": "human",
        "tid": "invariants _on_rx SODA007 hint matching",
        "ack": "human",
        "nack": "invariants: 'busy' opens the slow-retry regime",
        "hint": "invariants _on_rx SODA007",
        "fid": "causal.clocks: joins this rx to its kernel.tx",
    },
    "conn.acked": {
        "mid": "causal.clocks (process); causal.races SODA012",
        "peer": "causal.races SODA012",
        "kind": "obs.instrument transport.rtt_us.<kind>",
        "attempts": "obs.instrument transport.attempts_to_ack",
        "rtt_us": "obs.instrument transport.rtt_us; bench.real mean RTT",
        "policy": "obs.instrument transport.attempts_to_ack.policy.<policy>",
        "sampled": "human",
        "srtt_us": "human",
        "rttvar_us": "human",
    },
    # One per *discarded delivery* / replayed delivery, not per frame,
    # but emitted from the bus's per-frame path all the same.
    "net.drop": {
        "src": "human",
        "dst": "human",
        "frame_id": "human",
    },
    "net.replay": {
        "src": "human",
        "dst": "human",
        "frame_id": "human",
        "kind": "human",
    },
}

#: Present only on packets that carry it (probe replies).
OPTIONAL = {"kernel.tx": {"epoch"}, "kernel.rx": {"epoch"}}

#: obs.trace_records / net.frames on a KV cell: 6.70 while the bus
#: emitted ``net.tx``, 5.70 since.
KV_RECORDS_PER_FRAME_MAX = 6.0


def run(workload, schedule, seed):
    built = build_workload(workload, seed=seed, config=chaos_config())
    make_schedule(schedule, built.spec).run(built)
    return built.net


@pytest.fixture(scope="module")
def cells():
    return {
        "echo": run("echo", "sustained_loss", 1),
        "kv": run("kvstore_supervised", "duplicate", 1),
    }


def test_per_frame_records_carry_exactly_the_pinned_fields(cells):
    seen = set()
    for net in cells.values():
        for rec in net.sim.trace.records:
            pinned = PER_FRAME_RECORDS.get(rec.category)
            if pinned is None:
                continue
            seen.add(rec.category)
            extra = OPTIONAL.get(rec.category, set())
            assert set(rec.fields) - extra == set(pinned), rec
    # Both cells lose or replay deliveries, so every row was exercised.
    assert seen == set(PER_FRAME_RECORDS)


def test_the_simulated_bus_emits_no_net_tx(cells):
    # frames_sent / bytes_sent carry the totals; netreal's UdpMedium
    # keeps its own net.tx (tests/netreal/test_loopback.py).
    for net in cells.values():
        assert net.bus.frames_sent > 0
        assert net.sim.trace.count("net.tx") == 0
        assert not any(r.category == "net.tx" for r in net.sim.trace.records)


def test_kv_cell_keeps_its_records_per_frame(cells):
    net = cells["kv"]
    per_frame = len(net.sim.trace.records) / net.bus.frames_sent
    assert per_frame <= KV_RECORDS_PER_FRAME_MAX, per_frame
