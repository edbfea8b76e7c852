"""Event queue for the discrete-event engine.

Events are ordered by ``(time, priority, seq)``.  The sequence number makes
ordering total and deterministic: two events scheduled for the same instant
fire in the order they were scheduled (or by explicit priority).  The heap
holds ``(time, priority, seq, event)`` tuples, so every sift compares keys
in C and — ``seq`` being unique — never reaches the event itself.

Cancellation is lazy — ``Event.cancel`` marks the entry and the heap
discards it when it reaches the front — but the queue keeps an O(1)
*live* counter so ``len()`` never scans, and compacts the heap when
cancelled entries outnumber live ones (timer-heavy protocols cancel
almost every retransmission timer they arm, so a lazy-only heap can
grow far past its live population).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Optional


class Event:
    """A scheduled callback.

    Holding a reference to the event allows cancellation; the queue lazily
    discards cancelled entries when they are popped.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._on_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} prio={self.priority} {state} {self.fn!r}>"


class EventQueue:
    """A binary-heap event queue with lazy cancellation.

    ``len()`` is O(1): the queue tracks its live population as events are
    pushed, popped, and cancelled.  When dead entries dominate a
    non-trivial heap the queue rebuilds it in place (amortized O(1) per
    cancellation) so pathological cancel churn cannot inflate push/pop
    cost.
    """

    #: Heaps at or below this size are never compacted; the scan is not
    #: worth saving.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._pushed = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; returns the Event."""
        seq = self._pushed
        self._pushed = seq + 1
        event = Event(time, priority, seq, fn, args)
        event._queue = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def live_events(self) -> Iterator[Event]:
        """Every pending (not cancelled) event, in no particular order.

        For post-run oracles that must find timers no table points at
        any more; not for the run loop.
        """
        return (entry[3] for entry in self._heap if not entry[3].cancelled)

    def clear(self) -> None:
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live = 0

    def _on_cancel(self) -> None:
        """Account a cancellation; compact when dead entries dominate.

        The rebuild mutates ``_heap`` in place (slice assignment) so that
        aliases held by the engine's hot loop stay valid even when a
        handler cancels events mid-run.
        """
        self._live -= 1
        heap = self._heap
        if len(heap) > self.COMPACT_MIN and self._live * 2 < len(heap):
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(heap)
