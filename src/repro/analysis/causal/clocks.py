"""Vector clocks over a kernel trace (happens-before reconstruction).

Every trace record that names a node (``mid``) is an *event* of that
node's current **process**: the pair ``(mid, epoch)``, where the epoch
counts client resets (DIE/KILL/crash all funnel through
``kernel.client_reset``).  Events are ordered by:

* **program order** — successive events of the same node.  Epochs chain:
  the first event of incarnation N+1 follows the last event of
  incarnation N, because one physical kernel executes both;
* **send/receive edges** — a ``kernel.rx`` record joins the clock its
  matching ``kernel.tx`` carried.  The match is the NIC frame id
  (``fid``): every (re)transmission is a fresh frame, so a frame id
  pairs exactly one tx with its rx (broadcast frames fan out to many
  rx, all inheriting the one tx clock).

Clocks are indexed by ``mid`` (one component per node): same-node events
are totally ordered regardless of epoch, so per-node components suffice
and the clock width stays fixed for the whole trace.  The epoch is kept
as per-event metadata for the rules that need incarnation identity
(SODA011/SODA012).

Traces missing ``fid`` fields (captures older than frame ids) or a
receive's send (a merged real-UDP trace short of a node's dump; counted
as ``unmatched_rx``) degrade gracefully: the edge is simply not drawn,
weakening the relation toward "everything cross-node is concurrent" —
safe for the race rules, which only *suppress* diagnostics when an order
exists.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.frame import BROADCAST_MID
from repro.sim.tracing import TraceRecord

#: A process identity: (mid, epoch).
ProcId = Tuple[int, int]


class CausalOrder:
    """The queryable happens-before relation of one trace.

    Built by :func:`build_causal_order`; query with record *indices*
    (positions in the record sequence the order was built from).
    """

    def __init__(
        self,
        records: Sequence[TraceRecord],
        clocks: List[Optional[Tuple[int, ...]]],
        procs: List[Optional[ProcId]],
        mid_index: Dict[int, int],
        send_edges: int,
        unmatched_rx: int,
    ) -> None:
        self.records = records
        self._clocks = clocks
        self._procs = procs
        self._mid_index = mid_index
        #: rx events that inherited a tx clock through a frame id.
        self.send_edges = send_edges
        #: rx events whose frame id had no recorded tx (lost prefix,
        #: pre-correlation trace): no edge drawn.
        self.unmatched_rx = unmatched_rx

    # -- stats -------------------------------------------------------------

    @property
    def clocks_allocated(self) -> int:
        return sum(1 for clock in self._clocks if clock is not None)

    @property
    def processes(self) -> List[ProcId]:
        return sorted({proc for proc in self._procs if proc is not None})

    # -- queries -----------------------------------------------------------

    def clock(self, index: int) -> Optional[Tuple[int, ...]]:
        """The vector clock of record ``index`` (None if unclocked)."""
        return self._clocks[index]

    def proc(self, index: int) -> Optional[ProcId]:
        """The (mid, epoch) process record ``index`` belongs to."""
        return self._procs[index]

    def happens_before(self, i: int, j: int) -> bool:
        """True iff event ``i`` is in event ``j``'s causal past."""
        a, b = self._clocks[i], self._clocks[j]
        if a is None or b is None or a == b:
            return False
        return all(x <= y for x, y in zip(a, b))

    def ordered(self, i: int, j: int) -> bool:
        return self.happens_before(i, j) or self.happens_before(j, i)

    def concurrent(self, i: int, j: int) -> bool:
        """True iff both events are clocked and neither precedes the
        other (clock-incomparable)."""
        a, b = self._clocks[i], self._clocks[j]
        if a is None or b is None:
            return False
        return not self.ordered(i, j)

    def describe(self, index: int) -> str:
        """A witness line: record index, time, category, process."""
        rec = self.records[index]
        proc = self._procs[index]
        where = f"mid={proc[0]}/e{proc[1]}" if proc is not None else "-"
        return (
            f"#{index} t={rec.time / 1000.0:.3f}ms {rec.category} [{where}]"
        )


def build_causal_order(records: Sequence[TraceRecord]) -> CausalOrder:
    """Assign a vector clock to every node event of ``records``."""
    mids = sorted(
        {
            rec["mid"]
            for rec in records
            if rec.get("mid") is not None and rec["mid"] >= 0
        }
    )
    mid_index = {mid: i for i, mid in enumerate(mids)}
    width = len(mids)

    current: Dict[int, List[int]] = {mid: [0] * width for mid in mids}
    epochs: Dict[int, int] = {mid: 0 for mid in mids}
    #: fid -> (sender clock snapshot, broadcast?)
    pending: Dict[int, Tuple[Tuple[int, ...], bool]] = {}

    clocks: List[Optional[Tuple[int, ...]]] = []
    procs: List[Optional[ProcId]] = []
    send_edges = 0
    unmatched_rx = 0

    for rec in records:
        mid = rec.get("mid")
        if mid is None or mid not in mid_index:
            clocks.append(None)
            procs.append(None)
            continue
        category = rec.category
        if category == "kernel.client_reset":
            # The reset record is the first event of the new incarnation
            # (the kernel bumps its epoch before emitting it).
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

    return CausalOrder(
        records, clocks, procs, mid_index, send_edges, unmatched_rx
    )


def happens_before_pairs(
    order: CausalOrder, indices: Iterable[int]
) -> List[Tuple[int, int]]:
    """All ordered pairs (i, j) with i ≺ j among ``indices`` — a small
    helper for tests and exploratory tooling."""
    idx = sorted(indices)
    return [
        (i, j)
        for i in idx
        for j in idx
        if i != j and order.happens_before(i, j)
    ]
