"""Four-way bounded buffer (§4.4.2).

Two clients are each attached to a similar character device.  Each
client reads from its device and ships the data to the other client,
which buffers it and writes it to its own device.  Four flow-control
loops therefore exist (hence "four-way"):

* device → client: the device emits CTRL-S / CTRL-Q *as data* when its
  internal output buffer fills / drains;
* client → device: the client writes CTRL-S / CTRL-Q to stop/start the
  device producing;
* client → remote client: the blocking EXCHANGE used to ship data
  returns a FULL/CONTINUE status — the producing client stops its device
  when the remote buffer is full (the paper's "interesting use of
  EXCHANGE");
* remote client → client: a RESTART signal reopens the flow.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.buffers import Buffer
from repro.core.client import ClientProgram
from repro.core.errors import RequestStatus
from repro.core.patterns import Pattern, make_well_known_pattern
from repro.core.signatures import ServerSignature
from repro.sodal.queueing import Queue

START_PATTERN: Pattern = make_well_known_pattern(0o420)
BUFFER_DATA: Pattern = make_well_known_pattern(0o421)

CTRL_S = b"\x13"
CTRL_Q = b"\x11"

STATE_CONTINUE = b"\x00"
STATE_FULL = b"\x01"


class Device:
    """A simulated character device with XON/XOFF flow control.

    *Input side* (device → client): emits one item from ``items`` every
    ``produce_interval_us`` while running; the client stops/starts it by
    writing CTRL-S / CTRL-Q.

    *Output side* (client → device): stores written items in an internal
    buffer drained at one item per ``drain_interval_us``; when occupancy
    crosses ``high_water`` the device *emits* CTRL-S on its input side
    (telling the client to stop writing), and CTRL-Q when it drains to
    ``low_water``.

    The device advances lazily: ``poll(now)`` folds in elapsed time.
    """

    def __init__(
        self,
        items: List[bytes],
        produce_interval_us: float = 3_000.0,
        drain_interval_us: float = 4_000.0,
        out_capacity: int = 8,
        high_water: int = 6,
        low_water: int = 2,
    ) -> None:
        self.pending_input: List[bytes] = list(items)
        self.produce_interval_us = produce_interval_us
        self.drain_interval_us = drain_interval_us
        self.out_capacity = out_capacity
        self.high_water = high_water
        self.low_water = low_water

        self.stopped = False           # client wrote CTRL-S
        self.input_ready: Optional[bytes] = None
        self.out_buffer: List[bytes] = []
        self.output: List[bytes] = []  # everything fully drained
        self._flow_notices: List[bytes] = []  # pending ^S/^Q to emit
        self._xoff_sent = False
        self._last_produce = 0.0
        self._last_drain = 0.0
        self.xoff_count = 0

    def poll(self, now: float) -> None:
        # Drain the output buffer.
        while (
            self.out_buffer
            and now - self._last_drain >= self.drain_interval_us
        ):
            self._last_drain = (
                now if self._last_drain == 0.0 else self._last_drain + self.drain_interval_us
            )
            self.output.append(self.out_buffer.pop(0))
        if (
            self._xoff_sent
            and len(self.out_buffer) <= self.low_water
        ):
            self._xoff_sent = False
            self._flow_notices.append(CTRL_Q)
        # Produce input.
        if self.input_ready is None and self._flow_notices:
            self.input_ready = self._flow_notices.pop(0)
        elif (
            self.input_ready is None
            and not self.stopped
            and self.pending_input
            and now - self._last_produce >= self.produce_interval_us
        ):
            self._last_produce = now
            self.input_ready = self.pending_input.pop(0)

    @property
    def data_available(self) -> bool:
        return self.input_ready is not None

    def read(self) -> bytes:
        assert self.input_ready is not None
        item, self.input_ready = self.input_ready, None
        return item

    @property
    def output_ready(self) -> bool:
        return len(self.out_buffer) < self.out_capacity

    def write(self, now: float, item: bytes) -> None:
        if item == CTRL_S:
            self.stopped = True
            return
        if item == CTRL_Q:
            self.stopped = False
            return
        self.out_buffer.append(item)
        if not self._xoff_sent and len(self.out_buffer) >= self.high_water:
            self._xoff_sent = True
            self.xoff_count += 1
            self._flow_notices.append(CTRL_S)


class FourWayClient(ClientProgram):
    """One of the two symmetric device-relay clients (§4.4.2)."""

    def __init__(
        self,
        device: Device,
        other_mid: int,
        queue_size: int = 6,
        poll_us: float = 400.0,
    ) -> None:
        self.device = device
        self.other_mid = other_mid
        self.queue_size = queue_size
        self.poll_us = poll_us
        self.remote_stops_sent = 0

    def initialization(self, api, parent_mid):
        self.q: Queue[bytes] = Queue(self.queue_size)
        self.dev_buf_full = False          # device told us CTRL-S
        self.partner_buf_full = False      # remote buffer filled up
        self.partner_buf_empty = False     # remote asked us to restart
        self.remote_client_stopped = False
        yield from api.advertise(START_PATTERN)
        yield from api.advertise(BUFFER_DATA)

    def _remote(self, pattern: Pattern) -> ServerSignature:
        return ServerSignature(self.other_mid, pattern)

    def task(self, api):
        while True:
            self.device.poll(api.now)
            progressed = False

            # READ loop: device has produced something for the far side.
            if not self.partner_buf_full and self.device.data_available:
                data = self.device.read()
                progressed = True
                if data == CTRL_S:
                    self.dev_buf_full = True
                elif data == CTRL_Q:
                    self.dev_buf_full = False
                else:
                    while True:
                        status = Buffer(1)
                        completion = yield from api.b_exchange(
                            self._remote(BUFFER_DATA), put=data, get=status
                        )
                        if completion.status is RequestStatus.REJECTED:
                            # Remote queue momentarily full; retry.
                            yield api.compute(self.poll_us)
                            continue
                        break
                    if (
                        completion.status is RequestStatus.COMPLETED
                        and status.data == STATE_FULL
                    ):
                        self.partner_buf_full = True

            # WRITE loop: device ready to take buffered remote data.
            self.device.poll(api.now)
            if not self.dev_buf_full and self.device.output_ready:
                if self.partner_buf_full:
                    self.partner_buf_full = False
                    self.device.write(api.now, CTRL_S)
                    progressed = True
                elif self.partner_buf_empty:
                    self.partner_buf_empty = False
                    self.device.write(api.now, CTRL_Q)
                    progressed = True
                elif not self.q.is_empty():
                    item = yield from api.dequeue(self.q)
                    self.device.write(api.now, item)
                    progressed = True
                    if self.q.is_empty() and self.remote_client_stopped:
                        self.remote_client_stopped = False
                        yield from api.b_signal(self._remote(START_PATTERN))

            yield api.compute(self.poll_us if not progressed else self.poll_us / 4)

    def handler(self, api, event):
        if not event.is_arrival:
            return
        if event.pattern == BUFFER_DATA:
            if self.q.is_full():
                # Should not happen (the FULL status stops the producer),
                # but never drop data: make the sender retry.
                yield from api.reject()
                return
            buf = Buffer(event.put_size)
            if self.q.almost_full():
                # Tell the producer to stop *now* -- the status returns
                # on the same EXCHANGE (§4.4.2's "interesting use").
                self.remote_client_stopped = True
                self.remote_stops_sent += 1
                return_state = STATE_FULL
            else:
                return_state = STATE_CONTINUE
            yield from api.accept_current_exchange(get=buf, put=return_state)
            yield from api.enqueue(self.q, buf.data)
        elif event.pattern == START_PATTERN:
            yield from api.accept_current_signal()
            self.partner_buf_empty = True
