"""The "Typical Delta-t Situations" figure (p. 106): F1.

The figure illustrates three timer-driven behaviours of the Delta-t
protocol; we reproduce each as a scripted scenario against live kernels
and return the event timeline:

* **S1 — take-any expiry**: after a message exchange, a receiver that
  hears nothing for ``MPL + Δt`` destroys its connection record and will
  accept any sequence number again.
* **S2 — duplicate suppression**: while the record lives, a
  retransmitted (duplicate) sequence number is discarded and re-acked,
  not redelivered.
* **S3 — crash quiet period**: a crashed node stays silent for
  ``2·MPL + Δt`` before rejoining, by which time all old traffic has
  died out; communication then resumes with no explicit reconnection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bench.tables import failing
from repro.core.client import ClientProgram
from repro.core.config import KernelConfig
from repro.core.node import Network
from repro.core.patterns import make_well_known_pattern
from repro.transport.deltat import DeltaTConfig, DeltaTState

PATTERN = make_well_known_pattern(0o310)


@dataclass
class ScenarioResult:
    name: str
    events: List[Tuple[float, str]] = field(default_factory=list)
    ok: bool = False

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form for ``BENCH_*.json`` snapshots."""
        return {
            "name": self.name,
            "ok": self.ok,
            "events": [
                {"at_ms": at_ms, "event": text} for at_ms, text in self.events
            ],
        }


class _Echo(ClientProgram):
    def initialization(self, api, parent_mid):
        yield from api.advertise(PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            yield from api.accept_current_signal()


class _Pinger(ClientProgram):
    """Sends one SIGNAL, then another on demand."""

    def __init__(self):
        self.done = []

    def task(self, api):
        sig = api.server_sig(0, PATTERN)
        completion = yield from api.b_signal(sig)
        self.done.append((api.now, completion.status.value))
        yield from api.poll(lambda: getattr(self, "go_again", False))
        self.go_again = False
        completion = yield from api.b_signal(sig)
        self.done.append((api.now, completion.status.value))
        yield from api.serve_forever()


def _scenario_take_any(deltat: DeltaTConfig) -> ScenarioResult:
    result = ScenarioResult("S1 take-any expiry")
    net = Network(seed=5, config=KernelConfig(deltat=deltat))
    net.add_node(program=_Echo())
    pinger = _Pinger()
    net.add_node(program=pinger, boot_at_us=100.0)
    net.run(until=60_000.0)
    server_conn = net.nodes[0].kernel.connections.get(1)
    result.events.append((net.now / 1000.0, "exchange complete; record SYNCHRONIZED"))
    state_before = server_conn.recv_record.current_state(net.sim.now)
    # Silence for more than MPL + delta-t.
    quiet_until = net.sim.now + deltat.take_any_after_us + 10_000.0
    net.run(until=quiet_until)
    state_after = server_conn.recv_record.current_state(net.sim.now)
    result.events.append(
        (net.now / 1000.0, f"after {deltat.take_any_after_us/1000:.0f} ms of "
         f"silence: record {state_after.value}")
    )
    # New traffic with any sequence number is accepted.
    pinger.go_again = True
    net.run(until=net.sim.now + 60_000.0)
    result.events.append(
        (pinger.done[-1][0] / 1000.0, f"fresh exchange: {pinger.done[-1][1]}")
    )
    result.ok = (
        state_before is DeltaTState.SYNCHRONIZED
        and state_after is DeltaTState.TAKE_ANY
        and len(pinger.done) == 2
        and pinger.done[-1][1] == "completed"
    )
    return result


def _scenario_duplicate(deltat: DeltaTConfig) -> ScenarioResult:
    result = ScenarioResult("S2 duplicate suppression")
    net = Network(seed=6, config=KernelConfig(deltat=deltat))
    net.add_node(program=_Echo())
    pinger = _Pinger()
    net.add_node(program=pinger, boot_at_us=100.0)
    # Drop the server's first reply (ACCEPT+ACK): the requester will
    # retransmit its REQUEST, which the server must classify duplicate.
    drops = {"armed": True}

    def drop_first_accept(frame, receiver):
        from repro.transport.packet import PacketType

        if (
            drops["armed"]
            and frame.src == 0
            and getattr(frame.payload, "ptype", None) is PacketType.ACCEPT
        ):
            drops["armed"] = False
            result.events.append((net.now / 1000.0, "ACCEPT+ACK lost"))
            return True
        return False

    net.faults.add_drop_predicate(drop_first_accept)
    net.run(until=200_000.0)
    dup_records = [
        r for r in net.sim.trace.records
        if r.category == "conn.retransmit"
    ]
    result.events.append(
        (net.now / 1000.0,
         f"requester retransmitted {len(dup_records)} time(s); "
         f"exchange completed: {pinger.done[0][1] if pinger.done else 'no'}")
    )
    # The server handler must have been invoked exactly once for the
    # request despite the retransmission.
    server_arrivals = [
        r for r in net.sim.trace.records
        if r.category == "kernel.interrupt"
        and r["mid"] == 0
        and r["reason"] == "request_arrival"
    ]
    result.events.append(
        (net.now / 1000.0, f"server handler invocations: {len(server_arrivals)}")
    )
    result.ok = (
        len(dup_records) >= 1
        and len(server_arrivals) == 1
        and bool(pinger.done)
        and pinger.done[0][1] == "completed"
    )
    return result


def _scenario_crash_quiet(deltat: DeltaTConfig) -> ScenarioResult:
    result = ScenarioResult("S3 crash quiet period")
    net = Network(seed=7, config=KernelConfig(deltat=deltat))
    server_node = net.add_node(program=_Echo())
    pinger = _Pinger()
    net.add_node(program=pinger, boot_at_us=100.0)
    net.run(until=60_000.0)
    crash_at = net.sim.now
    server_node.crash()
    result.events.append((crash_at / 1000.0, "server node crashes"))
    quiet = deltat.crash_quiet_us
    result.events.append(
        (crash_at / 1000.0, f"quiet period: {quiet/1000:.0f} ms (2·MPL + Δt)")
    )
    recovered = {}

    def note_recovery():
        recovered["at"] = net.sim.now
        server_node.client = None
        server_node.install_program(_Echo(), boot_at_us=net.sim.now + 1_000.0)

    net.sim.schedule(quiet + 1.0, note_recovery)
    net.sim.schedule(quiet + 20_000.0, lambda: setattr(pinger, "go_again", True))
    net.run(until=crash_at + quiet + 20_000_000.0)
    offline_respected = recovered["at"] - crash_at >= quiet
    result.events.append((recovered["at"] / 1000.0, "node rejoins"))
    if len(pinger.done) == 2:
        result.events.append(
            (pinger.done[1][0] / 1000.0,
             f"post-recovery exchange: {pinger.done[1][1]}")
        )
    result.ok = (
        offline_respected
        and len(pinger.done) == 2
        and pinger.done[1][1] == "completed"
    )
    return result


def deltat_scenarios() -> Dict[str, ScenarioResult]:
    """Run all three Delta-t scenarios; returns results by name."""
    deltat = DeltaTConfig(mpl_us=20_000.0, r_us=60_000.0, a_us=5_000.0)
    return {
        "take_any": _scenario_take_any(deltat),
        "duplicate": _scenario_duplicate(deltat),
        "crash_quiet": _scenario_crash_quiet(deltat),
    }


def render(body) -> str:
    """Each scenario's verdict and event timeline."""
    lines = []
    for s in body.values():
        lines.append(f"{s['name']} [{'ok' if s['ok'] else 'FAILED'}]")
        lines += [f"    t={e['at_ms']:9.1f} ms  {e['event']}" for e in s["events"]]
    return "\n".join(lines)


def verdicts(body) -> List[str]:
    """Every scenario behaves as the figure says and shows its events."""
    return failing(
        check
        for scenario in body.values()
        for check in (
            (scenario["ok"], f"{scenario['name']} is not ok"),
            (scenario["events"], f"{scenario['name']} recorded no events"),
        )
    )
