"""The SODAL API object handed to client programs (§4.1).

Every method that does work is a generator and must be invoked as
``yield from api.method(...)``; pure time costs are plain values for
``yield api.compute(us)``.  This mirrors the paper's split between SODAL
statements (which compile to kernel traps plus bookkeeping code) and
plain computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Union

from repro.core.boot import mids_from_bytes
from repro.core.buffers import Buffer
from repro.core.errors import NotInHandlerError, RequestStatus, SodaError
from repro.core.patterns import BROADCAST, Pattern
from repro.core.signatures import RequesterSignature, ServerSignature

#: The default argument used when the client does not care (§4.1).
OK = 0

#: The ACCEPT argument that spells REJECT (§4.1.2).
REJECT_ARG = -1

#: Longest sleep of one :meth:`SodalApi.poll` pass, in microseconds.
IDLE_CAP_US = 10_000.0

PutData = Union[bytes, bytearray, str, Buffer, None]
GetBuf = Union[Buffer, int, None]


@dataclass
class Completion:
    """Result of a blocking request (B_PUT and friends).

    ``status`` folds in the SODAL REJECTED convention: a completion whose
    ACCEPT argument is -1 reads as REJECTED (§4.1.2).
    """

    status: RequestStatus
    arg: int = 0
    taken_put: int = 0
    taken_get: int = 0
    tid: int = 0
    #: True when a failure provably never executed server-side (safe to
    #: re-issue); None when ambiguous or on success (docs/RECOVERY.md).
    not_executed: Optional[bool] = None

    @property
    def rejected(self) -> bool:
        return self.status is RequestStatus.REJECTED

    @property
    def completed(self) -> bool:
        return self.status is RequestStatus.COMPLETED


def _completion(tid: int, event) -> Completion:
    """The Completion a blocking request returns for its completion
    interrupt ``event``."""
    status = event.status
    if status is RequestStatus.COMPLETED and event.arg == REJECT_ARG:
        status = RequestStatus.REJECTED
    return Completion(
        status=status,
        arg=event.arg,
        taken_put=event.taken_put,
        taken_get=event.taken_get,
        tid=tid,
        not_executed=event.not_executed,
    )


def _coerce_put(data: PutData) -> bytes:
    """Objects are coerced into BUFFERS as necessary (§4.1.1)."""
    if data is None:
        return b""
    if isinstance(data, Buffer):
        return data.data
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


def _coerce_get(buf: GetBuf) -> Buffer:
    if buf is None:
        return Buffer.nil()
    if isinstance(buf, int):
        return Buffer(buf)
    return buf


class SodalApi:
    """Kernel primitives plus the SODAL conveniences, bound to one client."""

    def __init__(self, processor) -> None:
        self._processor = processor
        self.kernel = processor.kernel
        self.sim = processor.sim

    # ------------------------------------------------------------------
    # environment
    # ------------------------------------------------------------------

    @property
    def my_mid(self) -> int:
        """MY_MID from the communications region (§3.7.3)."""
        return self.kernel.mid

    @property
    def tm(self):
        return self.kernel.config.timing

    @property
    def node_disk(self):
        """This node's durable :class:`~repro.durability.disk.Disk`.

        ``None`` on diskless nodes — the SODA default, where a reboot
        is amnesiac (§3.5.2) and programs must tolerate it.
        """
        return getattr(getattr(self.kernel, "node", None), "disk", None)

    @property
    def now(self) -> float:
        return self.sim.now

    def server_sig(self, mid: int, pattern: Pattern) -> ServerSignature:
        """The <mid, pattern> cast (§4.1.3)."""
        return ServerSignature(mid, pattern)

    def requester_sig(self, mid: int, tid: int) -> RequesterSignature:
        """The <mid, tid> cast (§4.1.3)."""
        return RequesterSignature(mid, tid)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def compute(self, us: float) -> float:
        """Burn client CPU time: ``yield api.compute(us)``."""
        return us

    def poll(self, predicate, tick_us: Optional[float] = None) -> Generator:
        """``while not predicate() do idle()`` (§4.1.1).

        Models the IDLE/WAIT instruction (§5.2.1): each pass sleeps at
        most an exponentially-growing quantum (``tm.idle_poll_us``,
        doubling to :data:`IDLE_CAP_US`) but is woken immediately by
        any completed handler invocation, so the task reacts to fresh
        interrupts at idle-poll granularity without burning simulated
        cycles while nothing is going on.  ``predicate`` is looked at on
        every tick of that grid, so it must be free of side effects; it
        may read the clock, the kernel or another node.  A pass that
        finds nothing costs the simulator no generator resume and,
        mostly, no event
        (:meth:`~repro.core.client.ClientProcessor.wait_activity`).

        ``tick_us`` replaces that grid with a fixed one, ``tick_us``
        apart: for a task that only needs interrupts and a clock of its
        own (a predicate with a deadline), one tick per ``tick_us``.
        ``tick_us=math.inf`` is the pure WAIT: no tick and no timer, so
        only a handler invocation looks at ``predicate`` again.  It is
        exact only for a predicate whose every input a handler
        invocation or the task itself writes (DESIGN.md §11.1).
        """
        first = self.tm.idle_poll_us if tick_us is None else tick_us
        cap = IDLE_CAP_US if tick_us is None else tick_us
        delay = first
        processor = self._processor
        while not predicate():
            seen = processor.activity_counter
            delay = yield from processor.wait_activity(predicate, delay, cap)
            if processor.activity_counter != seen:
                delay = first

    def serve_forever(self) -> Generator:
        """Suspend the task indefinitely; all work happens in the handler.

        Models the IDLE instruction of §5.2.1: the client waits for
        interrupts without touching shared memory.
        """
        yield self.sim.new_future()

    def _overhead(self) -> float:
        """Client-side cost of a primitive invocation (trap+descriptor)."""
        us = self.tm.client_overhead_us()
        self.kernel.ledger.charge("client_overhead", us)
        return us

    # ------------------------------------------------------------------
    # naming primitives
    # ------------------------------------------------------------------

    def advertise(self, pattern: Pattern) -> Generator:
        yield self._overhead()
        self.kernel.client_advertise(pattern)

    def unadvertise(self, pattern: Pattern) -> Generator:
        yield self._overhead()
        self.kernel.client_unadvertise(pattern)

    def getuniqueid(self) -> Generator:
        yield self._overhead()
        return self.kernel.client_getuniqueid()

    # ------------------------------------------------------------------
    # handler control
    # ------------------------------------------------------------------

    def open(self) -> Generator:
        yield self.tm.trap_us
        self.kernel.client_open()

    def close(self) -> Generator:
        yield self.tm.trap_us
        self.kernel.client_close()

    # ------------------------------------------------------------------
    # process control
    # ------------------------------------------------------------------

    def die(self) -> Generator:
        yield self.tm.trap_us
        self.kernel.client_die()
        # The client never executes past DIE; the process was killed.
        yield self.sim.new_future()  # pragma: no cover

    # ------------------------------------------------------------------
    # non-blocking REQUEST variants (§4.1.1)
    # ------------------------------------------------------------------

    def request(
        self,
        server: ServerSignature,
        arg: int = OK,
        put: PutData = None,
        get: GetBuf = None,
    ) -> Generator:
        """REQUEST; returns the TID."""
        yield self._overhead()
        return self.kernel.client_request(
            server, arg, _coerce_put(put), _coerce_get(get)
        )

    def signal(self, server: ServerSignature, arg: int = OK) -> Generator:
        return self.request(server, arg)

    def put(
        self, server: ServerSignature, arg: int = OK, put: PutData = None
    ) -> Generator:
        return self.request(server, arg, put=put)

    def get(
        self, server: ServerSignature, arg: int = OK, get: GetBuf = None
    ) -> Generator:
        return self.request(server, arg, get=get)

    def exchange(
        self,
        server: ServerSignature,
        arg: int = OK,
        put: PutData = None,
        get: GetBuf = None,
    ) -> Generator:
        return self.request(server, arg, put=put, get=get)

    # ------------------------------------------------------------------
    # ACCEPT variants
    # ------------------------------------------------------------------

    def accept(
        self,
        requester: RequesterSignature,
        arg: int = OK,
        get: GetBuf = None,
        put: PutData = None,
    ) -> Generator:
        """Blocking ACCEPT; returns an AcceptStatus."""
        yield self._overhead()
        return (
            yield from self._blocked_on(
                self.kernel.client_accept(
                    requester, arg, _coerce_get(get), _coerce_put(put)
                )
            )
        )

    def _blocked_on(self, future) -> Generator:
        """Wait out a blocking primitive (ACCEPT, CANCEL): no handler runs
        until it returns; then a pending interrupt may."""
        self._processor.in_blocking_primitive = True
        try:
            status = yield future
        finally:
            self._processor.in_blocking_primitive = False
        self.kernel.poll_handler()
        return status

    def accept_signal(
        self, requester: RequesterSignature, arg: int = OK
    ) -> Generator:
        return self.accept(requester, arg)

    def accept_put(
        self, requester: RequesterSignature, arg: int = OK, get: GetBuf = None
    ) -> Generator:
        """Complete a PUT: receive the requester's data into ``get``."""
        return self.accept(requester, arg, get=get)

    def accept_get(
        self, requester: RequesterSignature, arg: int = OK, put: PutData = None
    ) -> Generator:
        """Complete a GET: send ``put`` back to the requester."""
        return self.accept(requester, arg, put=put)

    def accept_exchange(
        self,
        requester: RequesterSignature,
        arg: int = OK,
        get: GetBuf = None,
        put: PutData = None,
    ) -> Generator:
        return self.accept(requester, arg, get=get, put=put)

    # -- ACCEPT_CURRENT (§4.1.2) -------------------------------------------

    def _current_asker(self) -> RequesterSignature:
        event = self._processor.current_event
        if event is None or not event.is_arrival or event.asker is None:
            raise NotInHandlerError(
                "ACCEPT_CURRENT is only legal inside a request-arrival handler"
            )
        return event.asker

    def accept_current(
        self, arg: int = OK, get: GetBuf = None, put: PutData = None
    ) -> Generator:
        return self.accept(self._current_asker(), arg, get=get, put=put)

    def accept_current_signal(self, arg: int = OK) -> Generator:
        return self.accept_current(arg)

    def accept_current_put(self, arg: int = OK, get: GetBuf = None) -> Generator:
        return self.accept_current(arg, get=get)

    def accept_current_get(self, arg: int = OK, put: PutData = None) -> Generator:
        return self.accept_current(arg, put=put)

    def accept_current_exchange(
        self, arg: int = OK, get: GetBuf = None, put: PutData = None
    ) -> Generator:
        return self.accept_current(arg, get=get, put=put)

    def reject(self, requester: Optional[RequesterSignature] = None) -> Generator:
        """REJECT: ACCEPT with no data and an argument of -1 (§4.1.2)."""
        if requester is None:
            requester = self._current_asker()
        return self.accept(requester, REJECT_ARG)

    # ------------------------------------------------------------------
    # CANCEL
    # ------------------------------------------------------------------

    def cancel(self, tid: int) -> Generator:
        """Blocking CANCEL of one of our own requests."""
        yield self._overhead()
        return (
            yield from self._blocked_on(
                self.kernel.client_cancel(RequesterSignature(self.my_mid, tid))
            )
        )

    # ------------------------------------------------------------------
    # blocking requests (§4.1.1)
    # ------------------------------------------------------------------

    def b_request(
        self,
        server: ServerSignature,
        arg: int = OK,
        put: PutData = None,
        get: GetBuf = None,
        image=None,
    ) -> Generator:
        """B_PUT/B_GET/B_EXCHANGE/B_SIGNAL core; returns a Completion.

        Legal in the task; inside the handler it performs the paper's
        saved-PC maneuver: the handler invocation ends here and the rest
        of the calling code continues at task level (§4.1.1).
        """
        if self._processor.executing_handler:
            self._processor.detach_handler_for_blocking()
        # The blocking wrapper's bookkeeping (§4.1.1): save the return
        # point and prepare the hidden completion handler...
        yield self.tm.blocking_wrapper_half_us
        yield self._overhead()
        tid = self.kernel.client_request(
            server, arg, _coerce_put(put), _coerce_get(get), image=image
        )
        event = yield self.watch_completion(tid)
        # ...and restore it when the completion unblocks us.
        yield self.tm.blocking_wrapper_half_us
        return _completion(tid, event)

    def watch_completion(self, tid: int):
        """Register interest in a request's completion *right now*.

        Returns a future for :meth:`wait_completion`.  The completion
        event will be intercepted by the hidden SODAL handler instead of
        reaching the user handler.  Register before any completion could
        arrive; then wait whenever convenient (pipelined sends do this).
        """
        future = self.sim.new_future()
        self._processor.awaited_completions[tid] = future
        return future

    def wait_completion(self, tid: int, future) -> Generator:
        """Block until a watched completion arrives; returns a Completion."""
        return _completion(tid, (yield future))

    def b_signal(self, server: ServerSignature, arg: int = OK) -> Generator:
        return self.b_request(server, arg)

    def b_put(
        self, server: ServerSignature, arg: int = OK, put: PutData = None
    ) -> Generator:
        return self.b_request(server, arg, put=put)

    def b_get(
        self, server: ServerSignature, arg: int = OK, get: GetBuf = None
    ) -> Generator:
        return self.b_request(server, arg, get=get)

    def b_exchange(
        self,
        server: ServerSignature,
        arg: int = OK,
        put: PutData = None,
        get: GetBuf = None,
    ) -> Generator:
        return self.b_request(server, arg, put=put, get=get)

    # ------------------------------------------------------------------
    # DISCOVER (§4.1.3)
    # ------------------------------------------------------------------

    def discover_all(
        self, pattern: Pattern, max_replies: int = 16
    ) -> Generator:
        """One broadcast round; returns the list of matching MIDs."""
        buffer = Buffer(2 * max_replies)
        completion = yield from self.b_get(
            ServerSignature(BROADCAST, pattern), OK, get=buffer
        )
        if completion.status is not RequestStatus.COMPLETED:
            return []
        return mids_from_bytes(buffer.data)

    def discover(self, pattern: Pattern) -> Generator:
        """Blocking DISCOVER: retries until a server answers; returns a
        ServerSignature for one matching server (§4.1.3)."""
        while True:
            mids = yield from self.discover_all(pattern, max_replies=1)
            if mids:
                return ServerSignature(mids[0], pattern)

    # ------------------------------------------------------------------
    # booting (§3.5.2)
    # ------------------------------------------------------------------

    def boot_node(
        self, target: ServerSignature, image, start: bool = True
    ) -> Generator:
        """Run the boot protocol against a bare node (§3.5.2).

        ``target`` is <mid, BOOT_PATTERN> (typically from a DISCOVER on
        the machine-type boot pattern); ``image`` is a ProgramImage.
        Returns the LOAD pattern's server signature, usable later to
        kill the child (a second SIGNAL on it).  Raises SodaError if the
        node refused the boot (already claimed or occupied).

        With ``start=False`` the image is loaded but not started; issue
        the start SIGNAL later with :meth:`boot_start` — connectors use
        this to load a whole application before any module runs.
        """
        from repro.core.boot import pattern_from_bytes

        buf = Buffer(6)
        completion = yield from self.b_get(target, get=buf)
        if completion.status is not RequestStatus.COMPLETED:
            raise SodaError(
                f"boot refused by MID {target.mid}: {completion.status.value}"
            )
        load_sig = ServerSignature(target.mid, pattern_from_bytes(buf.data))
        first = True
        for offset, nbytes in image.chunks():
            completion = yield from self.b_request(
                load_sig,
                arg=offset,
                put=bytes(nbytes),
                image=image if first else None,
            )
            if completion.status is not RequestStatus.COMPLETED:
                raise SodaError(f"image load failed: {completion.status.value}")
            first = False
        if start:
            yield from self.boot_start(load_sig)
        return load_sig

    def boot_start(self, load_sig: ServerSignature) -> Generator:
        """Start a previously-loaded client (the first LOAD SIGNAL)."""
        completion = yield from self.b_signal(load_sig)
        if completion.status is not RequestStatus.COMPLETED:
            raise SodaError(f"boot start failed: {completion.status.value}")

    # ------------------------------------------------------------------
    # queue helpers (charge the paper's queueing overhead, §5.5)
    # ------------------------------------------------------------------

    def enqueue(self, queue, item) -> Generator:
        yield self.tm.queue_op_us
        queue.enqueue(item)

    def dequeue(self, queue) -> Generator:
        yield self.tm.queue_op_us
        return queue.dequeue()
