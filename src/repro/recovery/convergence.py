"""The chaos self-heal judgment: do supervised services converge?

After the last fault of a schedule clears, a supervised workload must
*return to service* — not merely avoid safety violations.  This module
gives the chaos runner that verdict:

* every supervised role ends the run with a live client whose service
  pattern is advertised again;
* every ``recovery.crash_detected`` is answered by a
  ``recovery.restored`` within :data:`SELF_HEAL_BOUND_US` of the later
  of the detection and the last scheduled fault;
* the supervisor never escalated (gave the service up for dead).

Span termination — the other half of "converged" — is already enforced
by :mod:`repro.chaos.liveness`; together they make the post-fault
contract: *everything pending terminates, and the service comes back.*
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.recovery.detector import FailureDetector
from repro.recovery.supervisor import SupervisorProgram
from repro.sim.tracing import SinkTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads import BuiltWorkload

#: How long after the last fault (or the crash detection, whichever is
#: later) a supervised service may take to be advertised-and-answering
#: again.  Sized like the liveness grace: detection (3 polls of 200ms)
#: + backoff + a full BOOT/LOAD round trip fit comfortably.
SELF_HEAL_BOUND_US = 3_000_000.0

#: Trace categories folded into :func:`recovery_summary` counts.
_SUMMARY_CATEGORIES = {
    "kernel.crash_report": "crash_reports",
    "recovery.crash_detected": "crashes_detected",
    "recovery.reboot": "reboots_issued",
    "recovery.restored": "restored",
    "recovery.escalated": "escalations",
    "recovery.retry": "retries",
    "recovery.maybe": "ambiguous_maybes",
}


class RecoverySink:
    """The recovery judge as a record sink: the
    :data:`_SUMMARY_CATEGORIES` counts and the instants the self-heal
    verdict compares (a handful of entries per crash).  Its
    :attr:`detector` is a sink of its own, and goes in the same table:
    ``SinkTable(sink, sink.detector)``."""

    def __init__(self) -> None:
        self.detector = FailureDetector()
        self.counts = {key: 0 for key in sorted(_SUMMARY_CATEGORIES.values())}
        #: service mid -> instants it was restored.
        self.restored: Dict[int, List[float]] = {}
        #: (category, time, service mid) of every escalation and crash
        #: detection, in emission order — the order the verdict reports in.
        self.alarms: List[Tuple[str, float, int]] = []

    def _on_record(self, record) -> None:
        category = record.category
        self.counts[_SUMMARY_CATEGORIES[category]] += 1
        if category == "recovery.restored":
            self.restored.setdefault(record["service_mid"], []).append(
                record.time
            )
        elif category in ("recovery.escalated", "recovery.crash_detected"):
            self.alarms.append((category, record.time, record["service_mid"]))

    #: The rows this sink adds to a ``{category: handlers}`` dispatch
    #: table: the counted categories.
    HANDLERS = dict.fromkeys(_SUMMARY_CATEGORIES, _on_record)

    def finish(self) -> Dict[str, object]:
        """The deterministic recovery digest of what was fed."""
        detector = self.detector
        return {
            "counts": self.counts,
            "false_suspicions": detector.false_suspicions,
            "epochs": {
                str(mid): detector.views[mid].epoch
                for mid in sorted(detector.views)
            },
        }

    def self_heal(
        self,
        built: "BuiltWorkload",
        last_fault_us: float,
        bound_us: float = SELF_HEAL_BOUND_US,
    ) -> List[str]:
        """The convergence verdict of :func:`check_self_heal`, from what
        was fed and ``built``'s live state at the horizon."""
        supervised = built.spec.supervised
        if not supervised:
            return []
        problems: List[str] = []
        patterns = _supervisor_patterns(built)

        for role_name in supervised:
            mid = built.mid_of(role_name)
            kernel = built.net.nodes[mid].kernel
            client = kernel.client
            if client is None or client.dead:
                problems.append(
                    f"supervised role {role_name!r} (mid {mid}) has no live "
                    f"client at the horizon"
                )
                continue
            pattern = patterns.get(mid)
            if pattern is not None and not kernel.patterns.matches(pattern):
                problems.append(
                    f"supervised role {role_name!r} (mid {mid}) is alive but "
                    f"its service pattern is not advertised at the horizon"
                )

        supervised_mids = {built.mid_of(name) for name in supervised}
        for category, time, service_mid in self.alarms:
            if service_mid not in supervised_mids:
                continue
            if category == "recovery.escalated":
                problems.append(
                    f"supervisor escalated service mid "
                    f"{service_mid} at t={time:.0f}us "
                    f"(restart budget exhausted)"
                )
                continue
            deadline = max(time, last_fault_us) + bound_us
            healed = any(
                time <= t <= deadline
                for t in self.restored.get(service_mid, ())
            )
            if not healed:
                problems.append(
                    f"service mid {service_mid} detected crashed at "
                    f"t={time:.0f}us was not restored within "
                    f"{bound_us:.0f}us of the last fault"
                )
        return problems


def recovery_summary(records) -> Dict[str, object]:
    """Deterministic recovery digest of one run's trace records."""
    sink = RecoverySink()
    SinkTable(sink, sink.detector).replay(records)
    return sink.finish()


def _supervisor_patterns(built: "BuiltWorkload") -> Dict[int, int]:
    """service mid → advertised pattern, from live supervisor programs."""
    patterns: Dict[int, int] = {}
    for node in built.net.nodes.values():
        client = node.kernel.client
        if client is None:
            continue
        program = getattr(client, "program", None)
        if isinstance(program, SupervisorProgram):
            for service in program.services:
                patterns[service.mid] = service.pattern
    return patterns


def check_self_heal(
    built: "BuiltWorkload",
    last_fault_us: float,
    bound_us: float = SELF_HEAL_BOUND_US,
) -> List[str]:
    """Post-run convergence check; returns human-readable problems.

    Empty for workloads with no ``supervised`` roles: the self-heal
    contract only binds services something promised to heal.
    """
    if not built.spec.supervised:
        return []
    sink = RecoverySink()
    SinkTable(sink, sink.detector).replay(built.net.sim.trace.retained())
    return sink.self_heal(built, last_fault_us, bound_us)
