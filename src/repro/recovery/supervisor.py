"""Supervisor facility: watch services, reboot them when they crash.

An Erlang-style supervisor adapted to SODA's primitives: services are
watched through their *advertised patterns* (a DISCOVER that the
service's kernel answers without invoking the handler, §3.4.4), and a
crashed service is brought back through the BOOT/LOAD reserved-pattern
protocol (§3.5.2) — the supervisor is an ordinary client program; the
kernel needs nothing new.

Detection: every poll interval the supervisor DISCOVERs each distinct
advertised pattern once and looks for each service's MID among the
replies.  ``misses_to_suspect`` *consecutive* silent polls mark the
service crashed (one lost broadcast round must not trigger a reboot).
A node that answers again on its own — e.g. after a partition heals —
is simply restored; reboots happen only while the boot pattern is
discoverable, which a live client's kernel never allows (§3.5.2).

Restart policy (:class:`RestartPolicy`): exponential backoff between
reboot attempts, a budget of ``max_restarts`` within a sliding
``window_us``, and escalation to permanently-dead when the budget is
exhausted (the supervisor stops trying and traces
``recovery.escalated``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.boot import ProgramImage, boot_pattern_for
from repro.core.client import ClientProgram
from repro.core.errors import SodaError
from repro.core.patterns import Pattern
from repro.core.signatures import ServerSignature


@dataclass(frozen=True)
class RestartPolicy:
    """Budgeted exponential backoff for reboot attempts."""

    #: Maximum successful reboots inside ``window_us`` before escalating.
    max_restarts: int = 5
    window_us: float = 30_000_000.0
    #: Backoff between *attempts* (failed or not): base * factor^n.
    backoff_base_us: float = 150_000.0
    backoff_factor: float = 2.0
    backoff_max_us: float = 2_000_000.0

    def backoff_us(self, attempt: int) -> float:
        delay = self.backoff_base_us * (self.backoff_factor ** attempt)
        return min(delay, self.backoff_max_us)


@dataclass(frozen=True)
class SupervisedService:
    """One watched service: where it lives and how to rebuild it."""

    name: str
    mid: int
    pattern: Pattern
    image: ProgramImage
    machine_type: str = "generic"


@dataclass
class _ServiceRuntime:
    """Mutable supervision state for one service."""

    misses: int = 0
    down: bool = False
    escalated: bool = False
    attempt: int = 0
    next_attempt_us: float = 0.0
    restarts: List[float] = field(default_factory=list)
    crashes_detected: int = 0
    reboots: int = 0
    restored: int = 0


class SupervisorProgram(ClientProgram):
    """A client that keeps its registered services advertised."""

    def __init__(
        self,
        services,
        policy: Optional[RestartPolicy] = None,
        poll_interval_us: float = 200_000.0,
        misses_to_suspect: int = 3,
    ) -> None:
        self.services: List[SupervisedService] = list(services)
        self.policy = policy or RestartPolicy()
        self.poll_interval_us = poll_interval_us
        self.misses_to_suspect = misses_to_suspect
        self.runtime = {svc.name: _ServiceRuntime() for svc in self.services}

    # -- program ------------------------------------------------------

    def task(self, api):
        while True:
            yield from self._poll_all(api)
            yield api.compute(self.poll_interval_us)

    # -- one supervision step -----------------------------------------

    def _poll_all(self, api):
        """DISCOVER each distinct pattern once, then judge every service.

        Every reply carries its MID (§3.4.4), so one broadcast answers
        for all the services sharing a pattern.
        """
        answers = {}
        for service in self.services:
            if (
                not self.runtime[service.name].escalated
                and service.pattern not in answers
            ):
                answers[service.pattern] = yield from api.discover_all(
                    service.pattern, max_replies=8
                )
        for service in self.services:
            yield from self._poll(api, service, answers.get(service.pattern, ()))

    def _poll(self, api, service: SupervisedService, mids):
        run = self.runtime[service.name]
        if run.escalated:
            return
        if service.mid in mids:
            if run.down:
                run.restored += 1
                api.sim.trace.record(
                    api.now, "recovery.restored",
                    api.my_mid, service.mid, service.name,
                )
            run.misses = 0
            run.down = False
            run.attempt = 0
            run.next_attempt_us = 0.0
            return
        run.misses += 1
        if run.misses < self.misses_to_suspect:
            return
        if run.misses == self.misses_to_suspect:
            api.sim.trace.record(
                api.now, "recovery.suspect",
                api.my_mid, service.mid, service.name, run.misses,
            )
        if not run.down:
            run.down = True
            run.crashes_detected += 1
            api.sim.trace.record(
                api.now, "recovery.crash_detected",
                api.my_mid, service.mid, service.name,
            )
        yield from self._try_reboot(api, service, run)

    def _try_reboot(self, api, service: SupervisedService, run: _ServiceRuntime):
        now = api.now
        if now < run.next_attempt_us:
            return
        window_start = now - self.policy.window_us
        run.restarts = [t for t in run.restarts if t >= window_start]
        if len(run.restarts) >= self.policy.max_restarts:
            run.escalated = True
            api.sim.trace.record(
                now, "recovery.escalated",
                api.my_mid, service.mid, service.name, len(run.restarts),
            )
            return
        run.next_attempt_us = now + self.policy.backoff_us(run.attempt)
        run.attempt += 1
        # Only a bare node advertises its boot pattern (§3.5.2): a
        # DISCOVER miss here means the node is still offline, still
        # occupied, or was already re-booted by someone else.
        boot_pattern = boot_pattern_for(service.machine_type)
        bootable = yield from api.discover_all(boot_pattern, max_replies=8)
        ok = service.mid in bootable
        if ok:
            try:
                yield from api.boot_node(
                    ServerSignature(service.mid, boot_pattern), service.image
                )
            except SodaError:
                ok = False
        api.sim.trace.record(
            api.now, "recovery.reboot_attempt",
            api.my_mid, service.mid, service.name, run.attempt, ok,
        )
        if ok:
            run.reboots += 1
            run.restarts.append(api.now)
            # Not yet restored: that verdict belongs to the next poll
            # that sees the pattern advertised again.
            run.misses = self.misses_to_suspect
            api.sim.trace.record(
                api.now, "recovery.reboot",
                api.my_mid, service.mid, service.name,
            )
