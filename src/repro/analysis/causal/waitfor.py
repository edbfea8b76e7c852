"""Wait-for-graph deadlock detection (rule SODA013).

A SODA client blocked in REQUEST holds whatever resources its earlier
transactions acquired while waiting for the server to ACCEPT — the
classic hold-and-wait ingredient.  The trace shows exactly who waits on
whom: every transaction span that is still *pending* at end of trace
(REQUEST issued, no terminal COMPLETE/cancel) is an edge

    requester mid  ──waits-for──▶  server mid

A cycle in that graph is a deadlock witness: every node on the cycle is
blocked waiting for a node that is itself blocked.  The §4.4.3 dining
philosophers under the no-arbitration variant (grab your *own* fork
before requesting your neighbour's) produce the textbook 5-cycle.

Self-loops count: a client requesting a pattern served by its own node
while its server task is blocked on the client is the degenerate case.

Detection is Tarjan's SCC algorithm, iterative (traces can open many
spans) and deterministic (nodes visited in sorted order, so component
ordering and diagnostic text never depend on hash seeds).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.causal.sink import CausalDiagnostic
from repro.obs.spans import TransactionSpan


class WaitForGraph:
    """Who waits on whom, plus the witness spans behind each edge."""

    def __init__(self) -> None:
        self.edges: Dict[int, Set[int]] = {}
        #: (requester, server) -> pending spans proving the edge.
        self.witnesses: Dict[Tuple[int, int], List[TransactionSpan]] = {}

    def add_wait(self, span: TransactionSpan) -> None:
        self.edges.setdefault(span.requester_mid, set()).add(span.server_mid)
        self.witnesses.setdefault(
            (span.requester_mid, span.server_mid), []
        ).append(span)

    @property
    def nodes(self) -> List[int]:
        seen: Set[int] = set(self.edges)
        for targets in self.edges.values():
            seen |= targets
        return sorted(seen)

    def cycles(self) -> List[List[int]]:
        """All deadlocked components: SCCs with more than one node, or a
        single node waiting on itself.  Deterministic order."""
        index: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        counter = [0]
        components: List[List[int]] = []

        for root in self.nodes:
            if root in index:
                continue
            # Iterative Tarjan: (node, iterator position) frames.
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                node, pos = work.pop()
                if pos == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                successors = sorted(self.edges.get(node, ()))
                recursed = False
                for i in range(pos, len(successors)):
                    succ = successors[i]
                    if succ not in index:
                        work.append((node, i + 1))
                        work.append((succ, 0))
                        recursed = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if recursed:
                    continue
                if lowlink[node] == index[node]:
                    component: List[int] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in self.edges.get(
                        node, ()
                    ):
                        components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        components.sort()
        return components


def build_wait_graph(spans: Iterable[TransactionSpan]) -> WaitForGraph:
    """The wait-for graph of every span still pending at end of trace."""
    graph = WaitForGraph()
    for span in spans:
        if span.status != "pending" or span.is_discover:
            continue
        if span.server_mid is None or span.server_mid < 0:
            continue
        graph.add_wait(span)
    return graph


def detect_deadlocks(
    spans: Iterable[TransactionSpan],
) -> List[CausalDiagnostic]:
    """SODA013: one diagnostic per wait-for cycle, with span witnesses —
    from the spans of the :class:`~repro.obs.spans.SpanBuilder` that
    rode the same table as the
    :class:`~repro.analysis.causal.sink.CausalSink`."""
    graph = build_wait_graph(spans)
    diagnostics: List[CausalDiagnostic] = []
    for component in graph.cycles():
        witness: List[str] = []
        earliest = None
        # Walk the cycle's edges in sorted order so the witness list is
        # stable; only edges inside the component matter.
        members = set(component)
        for requester in component:
            for server in sorted(graph.edges.get(requester, ())):
                if server not in members:
                    continue
                for span in graph.witnesses[(requester, server)]:
                    witness.append(
                        f"mid {requester} blocked on REQUEST "
                        f"<tid={span.tid}> to mid {server} since "
                        f"t={span.request_us / 1000.0:.3f}ms"
                    )
                    if earliest is None or span.request_us < earliest:
                        earliest = span.request_us
        ring = " -> ".join(str(m) for m in component + [component[0]])
        diagnostics.append(
            CausalDiagnostic(
                "SODA013",
                earliest if earliest is not None else 0.0,
                component[0],
                f"wait-for cycle among mids {{{', '.join(map(str, component))}}} "
                f"({ring}): every node is blocked in REQUEST on the next — "
                f"hold-and-wait deadlock; no ACCEPT can ever run",
                witness=tuple(witness),
            )
        )
    return diagnostics
