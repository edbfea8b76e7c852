"""The simulator core: a clock, an event queue, processes, RNG, and traces."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterator, Optional, Tuple

from repro.sim.events import Event, EventQueue
from repro.sim.process import Process, SimFuture
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer


class Simulator:
    """A deterministic discrete-event simulator.

    One Simulator instance models one *run* of a SODA network.  All
    components (bus, kernels, clients) share this instance for time,
    scheduling, randomness, and tracing.
    """

    __slots__ = (
        "now", "queue", "rng", "trace", "_events_processed", "_horizon"
    )

    def __init__(self, seed: int = 0, keep_trace: bool = True) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.rng = RngStreams(seed)
        self.trace = Tracer(keep_records=keep_trace)
        self._events_processed = 0
        #: How far :meth:`skip_to` may move the clock: the ``until`` of
        #: the :meth:`run` in progress, None when there is nothing to
        #: bound the skipping or someone is watching every event.
        self._horizon: Optional[float] = None

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Run ``fn(*args)`` after ``delay`` microseconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.queue.push(self.now + delay, fn, args, priority)

    def at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Run ``fn(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past (t={time} < {self.now})")
        return self.queue.push(time, fn, args, priority)

    # -- processes and futures --------------------------------------------

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Create and start a process driving ``gen``."""
        return Process(self, gen, name=name).start()

    def new_future(self) -> SimFuture:
        return SimFuture(self)

    # -- idle time (DESIGN.md §11) -------------------------------------------

    def quiet(self) -> bool:
        """True when no other live event is due at ``now``.

        Whatever the running callback would defer by a zero-delay hop
        would then run next with nothing in between, so the callback
        may do it in place and the result is the same.
        """
        due = self.queue.peek_time()
        return due is None or due > self.now

    def skip_to(self, time: float) -> bool:
        """Move the clock to ``time`` without an event, if no one can tell.

        For a periodic callback that found nothing to do and would only
        re-arm itself for ``time``: when that is *strictly* before the
        next live event (state cannot change before it) and not past the
        ``until`` of the :meth:`run` in progress, set ``now`` and return
        True — the caller then looks again, as if its timer had fired.
        Otherwise return False and the caller arms a real timer; always
        so under :meth:`run_until` (its predicate is owed a look at
        every event) and under a :meth:`run` with no ``until`` (each
        pass stays one event, so ``max_events`` still ends a run that
        would idle for ever).  Skipped instants are not events and
        ``events_processed`` does not count them.
        """
        horizon = self._horizon
        if horizon is None or time > horizon:
            return False
        due = self.queue.peek_time()
        if due is not None and due <= time:
            return False
        self.now = time
        return True

    # -- execution ---------------------------------------------------------

    def _run_core(
        self,
        deadline: Optional[float],
        max_events: int,
        predicate: Optional[Callable[[], bool]],
    ) -> Tuple[int, bool]:
        """The one guarded event loop behind :meth:`run` and
        :meth:`run_until`.

        Processes live events up to ``deadline`` (exclusive of events
        beyond it), enforcing the backwards-time guard and the exact
        ``max_events`` runaway guard; with a ``predicate`` it is checked
        before every event.  Returns ``(processed, satisfied)`` where
        ``satisfied`` is the final predicate verdict (always False with
        no predicate).  On exit the clock has advanced to ``deadline``
        unless the predicate stopped the loop first.

        This is the engine's hot path: the heap is accessed directly
        (bypassing :meth:`EventQueue.pop`'s per-call overhead) with
        pre-bound locals.  ``EventQueue`` compaction mutates the heap
        list in place, so the ``heap`` alias stays valid even when a
        handler cancels events mid-loop.
        """
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        processed = 0
        self._horizon = deadline if predicate is None else None
        try:
            while True:
                if predicate is not None and predicate():
                    return processed, True
                # Drop cancelled entries until a live event fronts the heap.
                while heap and heap[0][3].cancelled:
                    heappop(heap)
                if not heap:
                    break
                event_time = heap[0][0]
                if deadline is not None and event_time > deadline:
                    break
                if processed >= max_events:
                    raise RuntimeError(
                        f"run() exceeded max_events={max_events}; "
                        "likely a protocol livelock"
                    )
                if event_time < self.now:
                    raise RuntimeError("event queue went backwards")
                event = heappop(heap)[3]
                event._queue = None
                queue._live -= 1
                self.now = event_time
                event.fn(*event.args)
                processed += 1
        finally:
            self._events_processed += processed
            self._horizon = None
        if deadline is not None and self.now < deadline:
            self.now = deadline
        satisfied = predicate is not None and predicate()
        return processed, satisfied

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Process events until the queue drains or ``until`` is reached.

        Returns the number of events processed by this call.  ``max_events``
        is a runaway guard: the call processes at most that many events and
        raises RuntimeError rather than spinning forever on a livelocked
        protocol.  The limit is exact — a run that needs exactly
        ``max_events`` events completes.
        """
        processed, _ = self._run_core(until, max_events, None)
        return processed

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int = 10_000_000,
    ) -> bool:
        """Advance until ``predicate()`` is true or ``timeout`` elapses.

        Returns True if the predicate became true.  Checks the predicate
        after every event; intended for tests.  Like :meth:`run`, the
        clock lands on ``now + timeout`` when the predicate stays false
        (even if the queue drains early), and the same backwards-time
        and ``max_events`` guards apply — a livelocked predicate raises
        instead of spinning forever.
        """
        _, satisfied = self._run_core(self.now + timeout, max_events, predicate)
        return satisfied

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def pending_events(self) -> Iterator[Event]:
        """Live scheduled events, unordered (post-run oracles only)."""
        return self.queue.live_events()
