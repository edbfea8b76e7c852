"""The scheduler backend interface (ROADMAP item 3).

Everything above the simulator — the bus, :class:`~repro.core.kernel.SodaKernel`,
:class:`~repro.core.connection.Connection`, the client runtime, the
retransmit policies — talks to time through a small duck-typed surface.
This module names that surface explicitly so alternative backends (the
wall-clock asyncio scheduler in :mod:`repro.netreal.scheduler`) implement
a *contract* rather than a convention:

* :class:`TimerHandle` — what ``schedule``/``at`` return.  Holders keep
  the handle to ``cancel()`` it; the degraded invariant auditor inspects
  ``cancelled`` on timers the kernel retains.
* :class:`SchedulerBackend` — the clock/timer/process surface itself.
  Time is float **microseconds**; what one microsecond *means* (a queue
  pop, or a real wall-clock microsecond) is the backend's business.

Semantics every backend must honor:

* ``now`` is monotonically non-decreasing and starts at 0.0.
* ``schedule(delay, ...)`` rejects negative delays; ``at(time, ...)``
  never fires before ``time`` *in the backend's own timeline* (a
  wall-clock backend may clamp an already-past instant to "as soon as
  possible" — real time advances between computing a deadline and
  arming it, which virtual time cannot).
* cancelling a fired or cancelled timer is a no-op.
* ``rng`` exposes the named, seeded streams of
  :class:`~repro.sim.rng.RngStreams`; determinism of the *decisions*
  (loss coins, jitter draws) is preserved even when event *timing* is
  not reproducible.
* ``trace`` is a live :class:`~repro.sim.tracing.Tracer`; all records
  carry ``now`` at emission.
* ``quiet()`` is true only when nothing else is due at ``now``, so work
  a callback would defer by a zero-delay hop may be done in place; and
  ``skip_limit()`` is the latest instant ``now`` may be set to with no
  callback, run horizon or watched predicate in between — a periodic
  callback with nothing to do may move the clock up to it and look
  again at once instead of arming a timer (the idle wait of
  :meth:`~repro.core.client.ClientProcessor.wait_activity`, DESIGN.md
  §11.1).  A backend that cannot know may answer ``quiet`` as it likes
  where ties carry no meaning, and must answer ``skip_limit`` ``-inf``.

:class:`~repro.sim.engine.Simulator` is the reference implementation
(virtual time, deterministic); both it and the wall-clock backend are
asserted against this protocol in tests.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Callable, Generator

if sys.version_info >= (3, 8):
    from typing import Protocol, runtime_checkable
else:  # pragma: no cover - py3.7 fallback never hit (requires-python >=3.9)
    from typing_extensions import Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process, SimFuture
    from repro.sim.rng import RngStreams
    from repro.sim.tracing import Tracer


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable pending callback (returned by ``schedule``/``at``)."""

    #: True once :meth:`cancel` has been called; a cancelled timer's
    #: callback never runs.  Stays False after the callback fires.
    cancelled: bool

    def cancel(self) -> None: ...


@runtime_checkable
class SchedulerBackend(Protocol):
    """The clock/timer/process surface the SODA stack runs against."""

    now: float
    rng: "RngStreams"
    trace: "Tracer"

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> TimerHandle: ...

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> TimerHandle: ...

    def spawn(self, gen: Generator, name: str = "proc") -> "Process": ...

    def new_future(self) -> "SimFuture": ...

    def quiet(self) -> bool: ...

    def skip_limit(self) -> float: ...
