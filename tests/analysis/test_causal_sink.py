"""The causal sink equals the batch engine it replaced.

``CausalSink`` stamps clocks and judges SODA010-012 one record at a time,
retiring a transaction at its requester's terminal record.  The batch
engine it replaced — clocks sized from ``sorted(mids)`` after a full
pass, every rule judged over record indices, SODA013 over a second span
pass — is kept *here*, as it stood, as the reference (the way
``tests/test_live_judging.py`` keeps ``reference_run_cell``).  The sink
must give the same lines and the same four counts on every cell of
``test_live_judging.CELLS`` and on real traces mutated record by record
— all but one kind of mutated trace: a delivered cell written after its
``done`` / ``cancelled``, which no kernel emits.  The sink has retired
the cell by then and the reference judges the write against the
terminal one (DESIGN.md §21).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.causal import CausalSink, detect_deadlocks
from repro.analysis.causal.sink import CausalDiagnostic
from repro.chaos.runner import chaos_config, make_schedule
from repro.net.frame import BROADCAST_MID
from repro.obs.spans import SpanBuilder, build_spans
from repro.sim.tracing import SinkTable, TraceRecord
from repro.workloads import build_workload
from tests.test_live_judging import CELLS

# -- the reference: clocks.py, races.py and waitfor's span pass ---------------


class ReferenceOrder:
    def __init__(self, records, clocks, procs, send_edges, unmatched_rx):
        self.records = records
        self._clocks = clocks
        self._procs = procs
        self.send_edges = send_edges
        self.unmatched_rx = unmatched_rx

    @property
    def clocks_allocated(self):
        return sum(1 for clock in self._clocks if clock is not None)

    @property
    def processes(self):
        return sorted({proc for proc in self._procs if proc is not None})

    def happens_before(self, i, j):
        a, b = self._clocks[i], self._clocks[j]
        if a is None or b is None or a == b:
            return False
        return all(x <= y for x, y in zip(a, b))

    def concurrent(self, i, j):
        a, b = self._clocks[i], self._clocks[j]
        if a is None or b is None:
            return False
        return not (self.happens_before(i, j) or self.happens_before(j, i))

    def describe(self, index):
        rec = self.records[index]
        proc = self._procs[index]
        where = f"mid={proc[0]}/e{proc[1]}" if proc is not None else "-"
        return f"#{index} t={rec.time / 1000.0:.3f}ms {rec.category} [{where}]"


def reference_order(records: Sequence[TraceRecord]) -> ReferenceOrder:
    mids = sorted(
        {
            rec["mid"]
            for rec in records
            if rec.get("mid") is not None and rec["mid"] >= 0
        }
    )
    mid_index = {mid: i for i, mid in enumerate(mids)}
    current = {mid: [0] * len(mids) for mid in mids}
    epochs = {mid: 0 for mid in mids}
    pending: Dict[int, Tuple[Tuple[int, ...], bool]] = {}
    clocks: List[Optional[Tuple[int, ...]]] = []
    procs: List[Optional[Tuple[int, int]]] = []
    send_edges = unmatched_rx = 0
    for rec in records:
        mid = rec.get("mid")
        if mid is None or mid not in mid_index:
            clocks.append(None)
            procs.append(None)
            continue
        category = rec.category
        if category == "kernel.client_reset":
            epochs[mid] = rec.get("epoch", epochs[mid] + 1)
        clock = current[mid]
        clock[mid_index[mid]] += 1
        if category == "kernel.rx":
            fid = rec.get("fid")
            if fid is not None:
                entry = pending.get(fid)
                if entry is None:
                    unmatched_rx += 1
                else:
                    snapshot, broadcast = entry
                    for k, component in enumerate(snapshot):
                        if component > clock[k]:
                            clock[k] = component
                    send_edges += 1
                    if not broadcast:
                        del pending[fid]
        snapshot = tuple(clock)
        if category == "kernel.tx":
            fid = rec.get("fid")
            if fid is not None:
                pending[fid] = (snapshot, rec.get("dst") == BROADCAST_MID)
        clocks.append(snapshot)
        procs.append((mid, epochs[mid]))
    return ReferenceOrder(records, clocks, procs, send_edges, unmatched_rx)


_CONN_SEND = frozenset(
    {
        "conn.retransmit", "conn.busy_retry", "conn.acked",
        "conn.peer_dead", "conn.seq_swap", "conn.spurious_retransmit",
    }
)


def _witness(order, i, j):
    pair = [order.describe(i), order.describe(j)]
    if order.concurrent(i, j):
        pair.append("clock-concurrent")
    elif order.happens_before(j, i):
        pair.append("clock-inverted")
    return tuple(pair)


@dataclass
class _Txn:
    request: Optional[int] = None
    delivered: Optional[int] = None
    complete: Optional[int] = None
    complete_status: Optional[str] = None


def _boundary_between(boundaries, start, end):
    for idx in boundaries:
        if start < idx < end:
            return idx
    return None


def _latest_before(boundaries, end):
    found = None
    for idx in boundaries:
        if idx < end:
            found = idx
        else:
            break
    return found


def reference_races(records, order) -> List[CausalDiagnostic]:
    txns: Dict[Tuple[int, int], _Txn] = {}
    resets: Dict[int, List[int]] = {}
    crashes: Dict[int, List[int]] = {}
    req_epoch: Dict[Tuple[int, int], int] = {}
    done_epoch: Dict[Tuple[int, int], int] = {}
    epochs: Dict[int, int] = {}
    delivered_cells: Dict[Tuple[int, int, int], Tuple[int, str]] = {}
    last_tx: Dict[Tuple[int, int], int] = {}
    adtable: Dict[Tuple[int, int], int] = {}
    diagnostics: List[CausalDiagnostic] = []

    def flag(rule, rec, mid, message, i, j):
        diagnostics.append(
            CausalDiagnostic(rule, rec.time, mid, message, _witness(order, i, j))
        )

    for idx, rec in enumerate(records):
        category = rec.category
        mid = rec.get("mid")
        if category == "kernel.request":
            txn = txns.setdefault((mid, rec["tid"]), _Txn())
            if txn.request is None:
                txn.request = idx
            req_epoch[(mid, rec["tid"])] = epochs.get(mid, 0)
        elif category == "kernel.delivered_state":
            key = (rec["mid"], rec["src"], rec["tid"])
            txn = txns.setdefault((rec["src"], rec["tid"]), _Txn())
            state = rec["state"]
            if state == "delivered" and txn.delivered is None:
                txn.delivered = idx
            prev = delivered_cells.get(key)
            if prev is not None and state != "delivered":
                boundary = _boundary_between(
                    resets.get(rec["mid"], ()), prev[0], idx
                )
                if boundary is not None:
                    flag(
                        "SODA012", rec, rec["mid"],
                        f"delivered cell <{key[1]},{key[2]}> advanced "
                        f"to '{state}' across mid {rec['mid']}'s "
                        f"incarnation boundary — the write's cause "
                        f"predates the reset that wiped the cell",
                        boundary, idx,
                    )
            delivered_cells[key] = (idx, state)
        elif category == "kernel.complete":
            txn = txns.setdefault((mid, rec["tid"]), _Txn())
            if txn.complete is None:
                txn.complete = idx
                txn.complete_status = rec.get("status")
            done_epoch[(mid, rec["tid"])] = epochs.get(mid, 0)
        elif category == "kernel.client_reset":
            epochs[mid] = rec.get("epoch", epochs.get(mid, 0) + 1)
            resets.setdefault(mid, []).append(idx)
        elif category == "kernel.crash":
            crashes.setdefault(mid, []).append(idx)
        elif category == "kernel.tx":
            dst = rec.get("dst")
            if dst is not None and dst >= 0:
                last_tx[(mid, dst)] = idx
        elif category in _CONN_SEND:
            peer = rec.get("peer")
            if peer is None:
                continue
            boundary = _latest_before(crashes.get(mid, ()), idx)
            if boundary is not None:
                tx_idx = last_tx.get((mid, peer))
                if tx_idx is None or tx_idx < boundary:
                    flag(
                        "SODA012", rec, mid,
                        f"connection record {mid}->{peer} shows "
                        f"send-direction activity ({category}) after "
                        f"mid {mid}'s power failure with no fresh "
                        f"transmission — state of the dead "
                        f"incarnation raced the crash",
                        boundary, idx,
                    )
                    last_tx[(mid, peer)] = idx
        elif category == "kernel.advertise":
            adtable[(mid, rec["pattern"])] = epochs.get(mid, 0)
        elif category == "kernel.unadvertise":
            owner = adtable.get((mid, rec["pattern"]))
            if owner is not None and owner != epochs.get(mid, 0):
                boundary = _latest_before(resets.get(mid, ()), idx)
                if boundary is not None:
                    flag(
                        "SODA012", rec, mid,
                        f"advertisement-table entry for pattern "
                        f"{rec['pattern']:#x} unadvertised by "
                        f"incarnation e{epochs.get(mid, 0)} but "
                        f"advertised by e{owner} — the reset wiped "
                        f"the table between the two writes",
                        boundary, idx,
                    )
                adtable[(mid, rec["pattern"])] = epochs.get(mid, 0)

    for (req_mid, tid), txn in sorted(txns.items()):
        if txn.delivered is not None:
            if txn.request is not None and not order.happens_before(
                txn.request, txn.delivered
            ):
                rec = records[txn.delivered]
                flag(
                    "SODA010", rec, rec.get("mid"),
                    f"REQUEST <{req_mid},{tid}> was delivered at the "
                    f"server without the issuing REQUEST in its "
                    f"causal past — the delivery cannot have been "
                    f"caused by the request it claims",
                    txn.request, txn.delivered,
                )
            if (
                txn.complete is not None
                and txn.complete_status == "completed"
                and not order.happens_before(txn.delivered, txn.complete)
            ):
                rec = records[txn.complete]
                flag(
                    "SODA010", rec, rec.get("mid"),
                    f"REQUEST <{req_mid},{tid}> completed COMPLETED "
                    f"without its delivery in the completion's "
                    f"causal past — the reply arrived before (or "
                    f"concurrently with) its own cause",
                    txn.delivered, txn.complete,
                )
        issue = req_epoch.get((req_mid, tid))
        finish = done_epoch.get((req_mid, tid))
        if (
            issue is not None
            and finish is not None
            and finish != issue
            and txn.complete_status == "completed"
        ):
            boundary = _boundary_between(
                resets.get(req_mid, ()), txn.request or 0, txn.complete
            )
            first = boundary if boundary is not None else (
                txn.request or txn.complete
            )
            flag(
                "SODA011", records[txn.complete], req_mid,
                f"REQUEST <{req_mid},{tid}> was issued by incarnation "
                f"e{issue} but completed COMPLETED in e{finish} — a "
                f"stale ACCEPT crossed the requester's reset and "
                f"resurrected a dead transaction (§3.6.1 tid "
                f"watermark violated)",
                first, txn.complete,
            )

    diagnostics.sort(key=lambda d: (d.time, d.rule_id, d.mid or -1, d.message))
    return diagnostics


def reference_causal(records):
    """The old ``causal_diagnostics``: ``(lines, the four counts)``."""
    order = reference_order(records)
    diagnostics = reference_races(records, order) + detect_deadlocks(
        build_spans(records)
    )
    return [d.format() for d in diagnostics], (
        order.send_edges, order.unmatched_rx, order.clocks_allocated,
        len(order.processes),
    )


def sink_causal(records, mpl_us=math.inf):
    """The same verdict from one table of the sink and a span builder."""
    causal, spans = CausalSink(mpl_us), SpanBuilder()
    SinkTable(causal, spans).replay(records)
    diagnostics = causal.finish() + detect_deadlocks(spans.finish())
    return [d.format() for d in diagnostics], (
        causal.send_edges, causal.unmatched_rx, causal.clocks_allocated,
        len(causal.processes),
    )


# -- real traces --------------------------------------------------------------


def cell_trace(workload, schedule, seed):
    """A chaos cell's whole trace, retained (as ``run_cell`` was)."""
    built = build_workload(workload, seed=seed, config=chaos_config())
    make_schedule(schedule, built.spec).run(built)
    return tuple(built.net.sim.trace.records)


@pytest.mark.parametrize(
    "cell", CELLS, ids=["/".join(map(str, cell)) for cell in CELLS]
)
def test_sink_equals_the_batch_engine_on_a_cell(cell):
    """Also with frame clocks dropped one packet lifetime after their tx,
    as ``run_cell`` drops them: no rx of a real cell comes later."""
    records = cell_trace(*cell)
    reference = reference_causal(records)
    assert sink_causal(records) == reference
    assert sink_causal(records, chaos_config().deltat.mpl_us) == reference


#: Small real traces with resets, crashes, broadcasts and lost frames.
MUTATED_BASES = (
    ("echo", "client_flap", 1),
    ("supervised", "crash_load", 1),
    ("cancel", "lossy", 5),
    ("busy", "server_flap", 1),
)
base_trace = functools.lru_cache(maxsize=len(MUTATED_BASES))(cell_trace)

MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("drop", "swap", "reset")),
        st.floats(0.0, 1.0, exclude_max=True),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


def mutate(records, mutations):
    """Drop a record, swap it with its successor, or inject a
    ``kernel.client_reset`` of its node before it (with or without an
    explicit epoch)."""
    out = list(records)
    for kind, where, flag in mutations:
        at = int(where * len(out))
        rec = out[at]
        if kind == "drop":
            del out[at]
        elif kind == "swap" and at + 1 < len(out):
            out[at], out[at + 1] = out[at + 1], out[at]
        elif kind == "reset":
            mid = rec.get("mid")
            fields = {"mid": mid if mid is not None and mid >= 0 else 0}
            if flag:
                fields["epoch"] = 7
            out.insert(at, TraceRecord(rec.time, "kernel.client_reset", fields))
    return out


def writes_after_terminal(records):
    """True iff some delivered cell advances after its terminal write."""
    closed = set()
    for rec in records:
        if rec.category != "kernel.delivered_state":
            continue
        cell, state = (rec["mid"], rec["src"], rec["tid"]), rec["state"]
        if state != "delivered" and cell in closed:
            return True
        if state in ("done", "cancelled"):
            closed.add(cell)
        else:
            closed.discard(cell)
    return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MUTATED_BASES), MUTATIONS)
def test_sink_equals_the_batch_engine_on_mutated_traces(cell, mutations):
    records = mutate(base_trace(*cell), mutations)
    assume(not writes_after_terminal(records))
    assert sink_causal(records) == reference_causal(records)


def test_mutations_reach_the_rules():
    """The property is only as good as what it sees: a reset injected
    mid-run makes the reference fire, and the sink agrees."""
    records = base_trace("supervised", "crash_load", 1)
    fired = set()
    for where in (0.2, 0.4, 0.6, 0.8):
        mutated = mutate(records, [("reset", where, True)] * 3)
        lines, _counts = reference_causal(mutated)
        assert sink_causal(mutated) == (lines, _counts)
        fired.update(line.split()[1] for line in lines)
    assert fired & {"SODA010", "SODA011", "SODA012"}, fired
