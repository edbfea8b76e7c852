"""Wall-clock scheduler: the :class:`~repro.sim.interface.SchedulerBackend`
contract over asyncio.

The SODA stack asks its scheduler for exactly four things — a float
microsecond clock, cancellable timers, generator processes, and one-shot
futures (see :mod:`repro.sim.interface`).  This module answers them with
real time: ``now`` is ``loop.time()`` (CLOCK_MONOTONIC) relative to an
*epoch*, timers are ``loop.call_at`` handles, and processes/futures are
the unmodified :mod:`repro.sim.process` classes — they only ever touch
``sim.schedule``, so they run over either backend.

The epoch is what makes multi-process traces mergeable: Linux's
CLOCK_MONOTONIC is system-wide (time since boot), so the parent runner
picks one monotonic instant slightly in the future and every node
process anchors t=0µs to it.  Two records from two processes then sort
into one consistent timeline by their plain ``time`` field.

Divergences from the virtual-time engine, all inherent to real time:

* ``at()`` with an instant that has just slipped into the past fires
  as soon as possible instead of raising — between *computing* a
  deadline and *arming* it, a wall clock advances; a virtual clock
  cannot.
* tie-breaking ``priority`` degrades to asyncio's FIFO ordering of
  ready callbacks.
* ``run(until=None)`` (run to queue exhaustion) is not meaningful and
  raises; wall-clock runs always need a horizon.
* ``quiet()`` is always true and ``skip_limit()`` always ``-inf``: no two
  callbacks share a real instant, and real time cannot be skipped.  An
  idle wait therefore re-arms one ordinary timer per tick.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Generator, List, Optional

from repro.sim.process import Process, SimFuture
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer

#: Seconds per simulated microsecond.
_US = 1e-6

#: Poll period for ``run_until`` predicates, in seconds.  Coarse on
#: purpose: predicates are test conveniences, not protocol timers.
_POLL_S = 0.002


class WallClockTimer:
    """A pending callback; satisfies :class:`repro.sim.interface.TimerHandle`.

    Mirrors :class:`repro.sim.events.Event` where holders can see it:
    ``cancel()`` is idempotent and ``cancelled`` stays False once the
    callback has fired (the degraded invariant auditor distinguishes a
    *disarmed* timer from a *spent* one).
    """

    __slots__ = ("cancelled", "_handle")

    def __init__(self) -> None:
        self.cancelled = False
        self._handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class WallClockScheduler:
    """Run the SODA stack against real time on one asyncio event loop.

    Timers armed before :meth:`start` (program boots, kernel init work)
    are parked and flushed onto the loop when the epoch is fixed, so
    network construction code is identical to the simulator's.
    """

    def __init__(
        self,
        seed: int = 0,
        keep_trace: bool = True,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self.loop = loop or asyncio.new_event_loop()
        self.rng = RngStreams(seed)
        self.trace = Tracer(keep_records=keep_trace)
        self._events_processed = 0
        #: loop.time() that t=0µs maps to; None until started.
        self._epoch_s: Optional[float] = None
        #: (time_us, fn, args, timer) armed before the epoch existed.
        self._parked: List[tuple] = []

    # -- the clock ---------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._epoch_s is not None

    @property
    def now(self) -> float:
        """Float microseconds since the epoch (0.0 before start).

        Clamped at 0.0: a multi-process run fixes the epoch slightly in
        the future so all nodes begin together, and pre-epoch bookkeeping
        must not see negative time.
        """
        if self._epoch_s is None:
            return 0.0
        return max(0.0, (self.loop.time() - self._epoch_s) * 1e6)

    def start(self, epoch_monotonic: Optional[float] = None) -> None:
        """Fix the epoch and arm all parked timers.

        ``epoch_monotonic`` is an absolute ``loop.time()``/
        ``time.monotonic()`` instant (the cross-process rendezvous); by
        default the epoch is *now*.
        """
        if self._epoch_s is not None:
            raise RuntimeError("scheduler already started")
        self._epoch_s = (
            self.loop.time() if epoch_monotonic is None else epoch_monotonic
        )
        parked, self._parked = self._parked, []
        for time_us, fn, args, timer in parked:
            self._arm(time_us, fn, args, timer)

    # -- timers ------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> WallClockTimer:
        """Run ``fn(*args)`` after ``delay`` microseconds of real time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.at(self.now + delay, fn, *args, priority=priority)

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> WallClockTimer:
        """Run ``fn(*args)`` at absolute microsecond ``time``.

        An instant already in the past fires as soon as possible (see
        module docstring); the simulator's ValueError is unreachable
        here because real time moves under the caller.
        """
        timer = WallClockTimer()
        if self._epoch_s is None:
            self._parked.append((time, fn, args, timer))
        else:
            self._arm(time, fn, args, timer)
        return timer

    def _arm(self, time_us: float, fn, args, timer: WallClockTimer) -> None:
        if timer.cancelled:
            return
        when = self._epoch_s + time_us * _US

        def fire() -> None:
            timer._handle = None
            if timer.cancelled:  # pragma: no cover - handle.cancel() races
                return
            self._events_processed += 1
            fn(*args)

        timer._handle = self.loop.call_at(max(when, self.loop.time()), fire)

    # -- processes and futures ---------------------------------------------

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        return Process(self, gen, name=name).start()  # type: ignore[arg-type]

    def new_future(self) -> SimFuture:
        return SimFuture(self)  # type: ignore[arg-type]

    # -- idle time ---------------------------------------------------------

    def quiet(self) -> bool:
        """Real time has no ties: a callback never shares its instant."""
        return True

    def skip_limit(self) -> float:
        """Real time cannot be skipped; the caller arms a timer."""
        return -math.inf

    # -- execution ---------------------------------------------------------

    async def sleep_until(self, until_us: float) -> None:
        """Let the loop run (and timers fire) until ``until_us``."""
        if self._epoch_s is None:
            self.start()
        while True:
            remaining = until_us - self.now
            if remaining <= 0:
                return
            await asyncio.sleep(remaining * _US)

    async def wait_until(
        self, predicate: Callable[[], bool], timeout_us: float
    ) -> bool:
        """Poll ``predicate`` until true or ``timeout_us`` elapses."""
        if self._epoch_s is None:
            self.start()
        deadline = self.now + timeout_us
        while not predicate():
            if self.now >= deadline:
                return predicate()
            await asyncio.sleep(min(_POLL_S, (deadline - self.now) * _US))
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Drive the loop for ``until`` microseconds of wall time.

        Mirrors ``Simulator.run`` closely enough for single-process
        tests; the multi-process runner drives :meth:`sleep_until` on an
        already-running loop instead.  ``max_events`` keeps the
        signature; wall-clock runs are bounded by time, not event count.
        """
        if until is None:
            raise ValueError(
                "a wall-clock run needs an explicit horizon (until=...)"
            )
        before = self._events_processed
        self.loop.run_until_complete(self.sleep_until(until))
        return self._events_processed - before

    def run_until(
        self, predicate: Callable[[], bool], timeout: float
    ) -> bool:
        return self.loop.run_until_complete(
            self.wait_until(predicate, timeout)
        )

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def close(self) -> None:
        if not self.loop.is_closed():
            self.loop.close()
