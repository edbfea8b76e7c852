"""The timeserver utility and timeout idioms (§4.3.2, §4.4.3).

SODA deliberately has no timeouts in its primitives (§6.5); instead a
client registers a wakeup REQUEST with a timeserver that owns a hardware
clock.  The request is a SIGNAL whose argument is the delay; the
timeserver ACCEPTs it when the delay expires, invoking the requester's
handler.  The requester may then CANCEL whatever it was waiting on.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Generator, List, Tuple

from repro.core.client import ClientProgram
from repro.core.patterns import Pattern, make_well_known_pattern
from repro.core.signatures import RequesterSignature, ServerSignature

#: Well-known alarm-clock pattern (the paper's ALARM_CLOCK).
ALARM_CLOCK: Pattern = make_well_known_pattern(0o500)

#: Delay units carried in the SIGNAL argument: one tick = 1 ms, so that
#: 16-bit arguments cover over a minute.
TICK_US = 1_000.0


class TimeServer(ClientProgram):
    """Accepts wakeup SIGNALs when their delay expires.

    The REQUEST argument is the delay in milliseconds.  The hardware
    clock is one timer, armed for the earliest pending expiry; with
    nothing pending the server WAITs without one.
    """

    def __init__(self, pattern: Pattern = ALARM_CLOCK):
        self.pattern = pattern
        self._pending: List[Tuple[float, int, RequesterSignature]] = []
        self._tiebreak = itertools.count()
        self.alarms_served = 0

    def initialization(self, api, parent_mid):
        yield from api.advertise(self.pattern)

    def handler(self, api, event):
        if event.is_arrival and event.pattern == self.pattern:
            expiry = api.now + max(0, event.arg) * TICK_US
            heapq.heappush(
                self._pending, (expiry, next(self._tiebreak), event.asker)
            )
        return
        yield  # pragma: no cover

    def task(self, api):
        while True:
            while self._pending and self._pending[0][0] <= api.now:
                _expiry, _n, asker = heapq.heappop(self._pending)
                yield from api.accept_signal(asker)
                self.alarms_served += 1
            # WAIT until the earliest alarm is due or the handler
            # registers a new one: one tick at that expiry, none while
            # nothing is pending.
            registered = len(self._pending)
            wait = self._pending[0][0] - api.now if self._pending else math.inf
            due = api.now + wait
            yield from api.poll(
                lambda: len(self._pending) != registered or api.now >= due,
                tick_us=wait,
            )


def set_alarm(api, timeserver: ServerSignature, delay_ms: int) -> Generator:
    """Register a wakeup; returns the TID (§4.3.2).

    Non-blocking: the completion arrives at the client's handler when
    the alarm expires.  The TID lets the handler recognize it (the
    COMPLETION case of §4.1.4.1) and lets the client CANCEL the alarm.
    """
    tid = yield from api.signal(timeserver, arg=delay_ms)
    return tid


def sleep_via(api, timeserver: ServerSignature, delay_ms: int) -> Generator:
    """Blocking sleep: a B_SIGNAL the timeserver accepts at expiry."""
    completion = yield from api.b_signal(timeserver, arg=delay_ms)
    return completion
