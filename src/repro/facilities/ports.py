"""Input ports and priority queues (§4.2.1).

An input port is a queueing point for incoming messages: many writers,
one reader.  The server advertises the port pattern, its handler
enqueues requester signatures (closing the handler when the signature
queue fills — that is the port's flow control), and its task dequeues
and ACCEPTs.  "The faster port requests can be enqueued, the closer a
true FIFO ordering of incoming requests is approached."

A priority port orders pending requests by the REQUEST argument instead
of arrival order (§4.2.1: "the argument provided with the REQUEST is
used as a priority"; higher wins).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generator, List, Tuple

from repro.core.buffers import Buffer
from repro.core.errors import AcceptStatus
from repro.core.patterns import Pattern
from repro.core.signatures import RequesterSignature, ServerSignature
from repro.sodal.queueing import Queue


class InputPort:
    """Server-side half of an input port.

    Usage inside a ClientProgram::

        def initialization(self, api, parent):
            self.port = InputPort(PORT_PATTERN, queue_capacity=8,
                                  item_capacity=128)
            yield from self.port.install(api)

        def handler(self, api, event):
            if event.is_arrival and event.pattern == self.port.pattern:
                yield from self.port.note_arrival(api, event)

        def task(self, api):
            while True:
                data = yield from self.port.read(api)
                ...
    """

    def __init__(
        self, pattern: Pattern, queue_capacity: int, item_capacity: int
    ) -> None:
        self.pattern = pattern
        self.item_capacity = item_capacity
        self.pending: Queue[Tuple[RequesterSignature, int]] = Queue(queue_capacity)
        self._closed_for_flow_control = False

    def install(self, api) -> Generator:
        yield from api.advertise(self.pattern)

    def note_arrival(self, api, event) -> Generator:
        """Handler-side: enqueue the signature; CLOSE when full."""
        yield from api.enqueue(self.pending, (event.asker, event.arg))
        if self.pending.is_full():
            self._closed_for_flow_control = True
            yield from api.close()

    def _next(self, api) -> Generator:
        yield from api.poll(lambda: not self.pending.is_empty())
        if self._closed_for_flow_control:
            # There is room again now that we are consuming.
            self._closed_for_flow_control = False
            yield from api.open()
        entry = yield from api.dequeue(self.pending)
        return entry

    def read(self, api) -> Generator:
        """Task-side: block until a write is available; returns bytes."""
        asker, _arg = yield from self._next(api)
        buf = Buffer(self.item_capacity)
        status = yield from api.accept_put(asker, get=buf)
        if status is not AcceptStatus.SUCCESS:
            # Writer crashed or cancelled; recurse for the next one.
            return (yield from self.read(api))
        return buf.data


class PriorityPort(InputPort):
    """An input port whose reads return the highest-priority write first.

    Priority is the REQUEST argument; ties break by arrival order.
    """

    def __init__(
        self, pattern: Pattern, queue_capacity: int, item_capacity: int
    ) -> None:
        super().__init__(pattern, queue_capacity, item_capacity)
        self._heap: List[tuple] = []
        self._tiebreak = itertools.count()
        self._capacity = queue_capacity

    def note_arrival(self, api, event) -> Generator:
        yield api.tm.queue_op_us
        heapq.heappush(
            self._heap, (-event.arg, next(self._tiebreak), event.asker)
        )
        if len(self._heap) >= self._capacity:
            self._closed_for_flow_control = True
            yield from api.close()

    def _next(self, api) -> Generator:
        yield from api.poll(lambda: bool(self._heap))
        if self._closed_for_flow_control:
            self._closed_for_flow_control = False
            yield from api.open()
        yield api.tm.queue_op_us
        neg_priority, _, asker = heapq.heappop(self._heap)
        return (asker, -neg_priority)


def port_write(api, port_sig: ServerSignature, data, priority: int = 0) -> Generator:
    """Client-side port write: a blocking PUT (§4.2.1)."""
    completion = yield from api.b_put(port_sig, arg=priority, put=data)
    return completion
