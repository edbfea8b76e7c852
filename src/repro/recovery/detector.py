"""Failure detector: a per-(node, epoch) liveness view (§3.6).

The detector is an observer in the `repro.obs` mold: nothing in the
simulation references it.  It is a record sink — a
:class:`~repro.sim.tracing.SinkTable` feeds it live or replays a
retained trace into it — that folds records into one :class:`NodeView`
per node:

* ``kernel.boot_handler`` — a client started on the node: the boot
  counter (epoch) advances and the incarnation is ALIVE.  A rebooted
  node is a *new* incarnation; state never carries across epochs.
* ``kernel.die`` / ``kernel.crash`` — ground truth: the incarnation is
  DEAD (DIE resets the client, a crash loses the whole kernel).
* ``kernel.crash_report`` — a peer's transaction gave up on the node
  (§3.6 probe death, retransmit exhaustion, NACK): the incarnation
  becomes SUSPECT unless ground truth already marked it dead.
* ``recovery.restored`` — a supervisor confirmed the service answers
  DISCOVER again: corroborates ALIVE.

In the standard failure-detector framing (Aspnes §13) this is an
eventually-perfect detector *within* the simulation: suspicion is
driven by the protocol's own timeouts, and completeness comes from the
ground-truth records the kernel cannot emit spuriously.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.tracing import TraceRecord


class NodeState(enum.Enum):
    """Liveness verdict for one (node, epoch) incarnation."""

    UNKNOWN = "unknown"
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class NodeView:
    """Everything the detector believes about one node."""

    mid: int
    #: Boot-counter epoch: 0 before any client ever booted, then +1 per
    #: observed boot handler.  Requests completed against epoch N prove
    #: nothing about epoch N+1.
    epoch: int = 0
    state: NodeState = NodeState.UNKNOWN
    #: Sim time of the last state transition.
    since_us: float = 0.0
    #: Crash reports received about the *current* epoch.
    crash_reports: int = 0
    #: Lifetime totals (across epochs).
    total_crash_reports: int = 0
    boots: int = 0
    deaths: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "mid": self.mid,
            "epoch": self.epoch,
            "state": self.state.value,
            "since_us": self.since_us,
            "crash_reports": self.crash_reports,
            "total_crash_reports": self.total_crash_reports,
            "boots": self.boots,
            "deaths": self.deaths,
        }


class FailureDetector:
    """Aggregates trace records into per-node liveness views."""

    def __init__(self) -> None:
        self.views: Dict[int, NodeView] = {}
        #: Suspicions raised against a node whose incarnation was, per
        #: ground truth, alive at report time.  Under faults these are
        #: legitimate (partitions look like crashes); a fault-free run
        #: must report zero.
        self.false_suspicions: int = 0

    # -- the record handlers -------------------------------------------

    def _on_boot(self, record: TraceRecord) -> None:
        view = self._view(record["mid"])
        view.epoch += 1
        view.boots += 1
        view.crash_reports = 0
        self._transition(view, NodeState.ALIVE, record.time)

    def _on_death(self, record: TraceRecord) -> None:
        view = self._view(record["mid"])
        view.deaths += 1
        self._transition(view, NodeState.DEAD, record.time)

    def _on_crash_report(self, record: TraceRecord) -> None:
        view = self._view(record["peer"])
        view.crash_reports += 1
        view.total_crash_reports += 1
        if view.state is NodeState.ALIVE:
            self.false_suspicions += 1
        if view.state is not NodeState.DEAD:
            self._transition(view, NodeState.SUSPECT, record.time)

    def _on_restored(self, record: TraceRecord) -> None:
        view = self._view(record["service_mid"])
        if view.state is not NodeState.DEAD:
            view.crash_reports = 0
            self._transition(view, NodeState.ALIVE, record.time)

    #: The rows this sink adds to a ``{category: handlers}`` dispatch
    #: table (the record list of the module docstring).
    HANDLERS = {
        "kernel.boot_handler": _on_boot,
        "kernel.die": _on_death,
        "kernel.crash": _on_death,
        "kernel.crash_report": _on_crash_report,
        "recovery.restored": _on_restored,
    }

    def _view(self, mid: int) -> NodeView:
        view = self.views.get(mid)
        if view is None:
            view = self.views[mid] = NodeView(mid=mid)
        return view

    @staticmethod
    def _transition(view: NodeView, state: NodeState, now: float) -> None:
        if view.state is not state:
            view.state = state
            view.since_us = now

    # -- queries -------------------------------------------------------

    def view(self, mid: int) -> NodeView:
        return self._view(mid)

    def epoch(self, mid: int) -> int:
        return self._view(mid).epoch

    def state(self, mid: int) -> NodeState:
        return self._view(mid).state

    def alive(self, mid: int) -> bool:
        return self.state(mid) is NodeState.ALIVE

    def suspected(self, mid: int) -> bool:
        return self.state(mid) in (NodeState.SUSPECT, NodeState.DEAD)

    @property
    def total_crash_reports(self) -> int:
        return sum(v.total_crash_reports for v in self.views.values())

    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-ready snapshot (sorted by mid)."""
        return {
            "crash_reports": self.total_crash_reports,
            "false_suspicions": self.false_suspicions,
            "nodes": [
                self.views[mid].to_dict() for mid in sorted(self.views)
            ],
        }

    def format_table(self) -> List[str]:
        """Human-readable per-node lines for the CLI."""
        lines = [
            f"{'mid':>4} {'epoch':>6} {'state':>8} {'since(us)':>12}"
            f" {'reports':>8} {'boots':>6} {'deaths':>7}"
        ]
        for mid in sorted(self.views):
            v = self.views[mid]
            lines.append(
                f"{v.mid:>4} {v.epoch:>6} {v.state.value:>8}"
                f" {v.since_us:>12.0f} {v.total_crash_reports:>8}"
                f" {v.boots:>6} {v.deaths:>7}"
            )
        return lines
