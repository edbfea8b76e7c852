"""Two-way bounded buffer (§4.4.1).

Producers deliver data to a consumer that buffers to match speeds; when
producers outrun it, the consumer exerts backpressure.  Two mechanisms
from the paper:

* the **producer** double-buffers: it fills one buffer while its last
  PUT is still outstanding, so production overlaps delivery;
* the **consumer** buffers on two resources — data buffers (FreePool /
  Produced queues) and requester signatures (Pending queue) — and CLOSEs
  its handler when the signature queue fills (flow control on
  signatures); flow control on data falls out of producers not reissuing
  until their previous PUT is ACCEPTed.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.core.buffers import Buffer
from repro.core.client import ClientProgram
from repro.core.errors import AcceptStatus, RequestStatus
from repro.core.patterns import Pattern, make_well_known_pattern
from repro.sodal.queueing import Queue

CONSUMER_PATTERN: Pattern = make_well_known_pattern(0o460)


class BufferProducer(ClientProgram):
    """Produces items and ships them with a double-buffering PUT scheme."""

    def __init__(
        self,
        items: Iterable[bytes],
        pattern: Pattern = CONSUMER_PATTERN,
        produce_us: float = 500.0,
    ) -> None:
        self.items = list(items)
        self.pattern = pattern
        self.produce_us = produce_us
        self.delivered = 0
        self.failed = False

    def initialization(self, api, parent_mid):
        self._ready = True  # previous PUT completed
        self._consumer = None
        return
        yield  # pragma: no cover

    def handler(self, api, event):
        if event.is_completion:
            if event.status is not RequestStatus.COMPLETED:
                self.failed = True
            self._ready = True
            self.delivered += 1
        return
        yield  # pragma: no cover

    def task(self, api):
        self._consumer = yield from api.discover(self.pattern)
        for item in self.items:
            # Produce the next item while the previous PUT is in flight:
            # that is what the second buffer buys us.
            yield api.compute(self.produce_us)
            yield from api.poll(lambda: self._ready)
            self._ready = False
            yield from api.put(self._consumer, put=item)
        yield from api.poll(lambda: self._ready)
        yield from api.serve_forever()


class BufferConsumer(ClientProgram):
    """Buffers producer data; processes it at its own pace."""

    def __init__(
        self,
        pattern: Pattern = CONSUMER_PATTERN,
        queue_size: int = 4,
        pending_size: int = 4,
        item_capacity: int = 256,
        consume_us: float = 2_000.0,
        on_item: Optional[Callable[[bytes], None]] = None,
    ) -> None:
        self.pattern = pattern
        self.queue_size = queue_size
        self.pending_size = pending_size
        self.item_capacity = item_capacity
        self.consume_us = consume_us
        self.on_item = on_item
        self.consumed: List[bytes] = []
        self.flow_control_closes = 0

    def initialization(self, api, parent_mid):
        self.produced: Queue[Buffer] = Queue(self.queue_size)
        self.free_pool: Queue[Buffer] = Queue(
            self.queue_size, items=[Buffer(self.item_capacity) for _ in range(self.queue_size)]
        )
        self.pending: Queue = Queue(self.pending_size)
        yield from api.advertise(self.pattern)

    def handler(self, api, event):
        if not event.is_arrival:
            return
        if self.produced.is_full() or self.free_pool.is_empty():
            # Cannot buffer the data now: remember the requester.
            yield from api.enqueue(self.pending, event.asker)
            if self.pending.is_full():
                self.flow_control_closes += 1
                yield from api.close()
        else:
            buf = yield from api.dequeue(self.free_pool)
            status = yield from api.accept_current_put(get=buf)
            if status is AcceptStatus.SUCCESS:
                yield from api.enqueue(self.produced, buf)
            else:
                yield from api.enqueue(self.free_pool, buf)

    def task(self, api):
        while True:
            # Checking emptiness is a single machine word; only the
            # multi-step dequeue/accept sequences need the CLOSE/OPEN
            # critical section, so the handler stays open while idle.
            # The handler fills both queues: WAIT for its invocation.
            yield from api.poll(
                lambda: not (self.produced.is_empty() and self.pending.is_empty())
            )
            yield from api.close()
            work = None
            if not self.produced.is_empty():
                work = yield from api.dequeue(self.produced)
            if not self.pending.is_empty() and not self.free_pool.is_empty():
                buf = yield from api.dequeue(self.free_pool)
                asker = yield from api.dequeue(self.pending)
                status = yield from api.accept_put(asker, get=buf)
                if status is AcceptStatus.SUCCESS:
                    yield from api.enqueue(self.produced, buf)
                else:
                    yield from api.enqueue(self.free_pool, buf)
            yield from api.open()
            if work is not None:
                yield api.compute(self.consume_us)
                self.consumed.append(work.data)
                if self.on_item is not None:
                    self.on_item(work.data)
                yield from api.close()
                yield from api.enqueue(self.free_pool, work)
                yield from api.open()
