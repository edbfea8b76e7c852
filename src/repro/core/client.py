"""The uniprogrammed client processor (§3.1-§3.2, §6.2).

Each node runs exactly one client: a **task** (the main locus of control)
and a **handler** (client code invoked by kernel interrupt, which never
nests).  Both are Python generators driven as simulator processes; while
the handler runs, the task is paused — the paper's "temporary suspension
of the task activity".

Client programs subclass :class:`ClientProgram` and receive an *api*
object (:class:`repro.sodal.api.SodalApi` by default) exposing the kernel
primitives plus the SODAL conveniences.  Generator yields model client
CPU time: ``yield api.compute(us)`` burns time, ``yield from
api.accept_put(...)`` blocks in a kernel primitive.

**Blocking requests inside the handler.**  SODAL implements B_PUT et al.
from handler context by ending the handler invocation early and splicing
the remainder of the handler code into the task's place (the saved-PC
trick of §4.1.1).  We reproduce this with a *context stack*: the
suspended generator is detached from the handler role and pushed as the
active task-level context; the real task resumes only when the
continuation finishes.  Handler invocations always pause whatever context
is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from repro.core.errors import HandlerReason, RequestStatus
from repro.core.signatures import RequesterSignature

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import SodaKernel
    from repro.sim.engine import Simulator
    from repro.sim.process import Process, SimFuture


@dataclass
class HandlerEvent:
    """Arguments supplied to a handler invocation (§3.7.6)."""

    reason: HandlerReason
    #: REQUESTER SIGNATURE: the asker on arrivals, the completed request
    #: on completions.
    asker: Optional[RequesterSignature] = None
    #: Pattern part of the SERVER SIGNATURE the REQUEST used (arrivals).
    pattern: Optional[int] = None
    #: REQUEST argument on arrivals; ACCEPT argument on completions.
    arg: int = 0
    #: Completion status (completions only).
    status: Optional[RequestStatus] = None
    #: Buffer sizes offered by the REQUEST (arrivals).
    put_size: int = 0
    get_size: int = 0
    #: Data actually transferred each way (completions).
    taken_put: int = 0
    taken_get: int = 0
    #: MID of the booting parent (BOOTING only).
    parent_mid: Optional[int] = None
    #: On failed completions: True when the failure *proves* the server
    #: handler never executed (safe to retry), None when ambiguous
    #: (docs/RECOVERY.md).  Always None on successful completions.
    not_executed: Optional[bool] = None

    @property
    def is_arrival(self) -> bool:
        return self.reason is HandlerReason.REQUEST_ARRIVAL

    @property
    def is_completion(self) -> bool:
        return self.reason is HandlerReason.REQUEST_COMPLETE


class ClientProgram:
    """Base class for SODAL-style client programs (§4.1).

    Override any of the three sections; each is a generator.  The
    Initialization section is the handler invocation with BOOTING status;
    EndHandler is implicit at the end of Initialization and Handler, and
    Die is implicit at the end of Task.
    """

    def initialization(self, api, parent_mid: Optional[int]) -> Generator:
        """Booting handler; runs before the task starts."""
        return
        yield  # pragma: no cover

    def handler(self, api, event: HandlerEvent) -> Generator:
        """Client interrupt handler."""
        return
        yield  # pragma: no cover

    def task(self, api) -> Generator:
        """The main program.

        The default is a pure server: the task idles forever and all work
        happens in the handler.  A program that overrides ``task`` and
        returns from it dies (Die is implicit at the end of Task, §4.1).
        """
        yield from api.serve_forever()


class ClientProcessor:
    """Executes one client program against a kernel."""

    def __init__(
        self,
        sim: "Simulator",
        kernel: "SodaKernel",
        program: ClientProgram,
        name: str = "client",
        api_factory: Optional[Callable[["ClientProcessor"], Any]] = None,
    ) -> None:
        self.sim = sim
        self.kernel = kernel
        self.program = program
        self.name = name
        if api_factory is None:
            from repro.sodal.api import SodalApi

            api_factory = SodalApi
        self.api = api_factory(self)
        self.task_process: Optional["Process"] = None
        #: Task-level contexts: [task, detached handler continuations...].
        self._contexts: List["Process"] = []
        self.handler_process: Optional["Process"] = None
        self.in_blocking_primitive = False
        self.dead = False
        self.booted = False
        self._booting = False
        #: The event of the currently-executing handler invocation
        #: (ACCEPT_CURRENT needs the arrival's requester signature).
        self.current_event: Optional[HandlerEvent] = None
        #: Completions awaited by SODAL blocking requests, intercepted
        #: before the user handler sees them: tid -> future.
        self.awaited_completions: Dict[int, "SimFuture"] = {}
        #: Bumped after every handler invocation; polling loops use it to
        #: stay responsive right after interrupts while backing off
        #: during true idleness (the WAIT-instruction behaviour, §5.2.1).
        self.activity_counter = 0
        #: One future per context inside :meth:`wait_activity`, there
        #: for exactly as long as the wait.
        self._activity_waiters: List["SimFuture"] = []
        kernel.attach_client(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def boot(self, parent_mid: Optional[int] = None) -> None:
        """Start the client: Initialization (as a BOOTING handler), then Task."""
        if self.dead:  # DIEd before its boot instant
            return
        if self.booted:
            raise RuntimeError(f"{self.name} already booted")
        self.booted = True
        self._booting = True
        event = HandlerEvent(reason=HandlerReason.BOOTING, parent_mid=parent_mid)
        self.kernel.note_boot_started()
        body = _as_generator(self.program.initialization(self.api, parent_mid))
        self._run_invocation(body, event)

    def _start_task(self) -> None:
        if self.dead:
            return

        def body() -> Generator:
            yield from _as_generator(self.program.task(self.api))
            # Implicit Die at the end of the Task procedure (§4.1).
            yield from self.api.die()

        self.task_process = self.sim.spawn(body(), name=f"{self.name}.task")
        self._contexts.append(self.task_process)

    # ------------------------------------------------------------------
    # handler execution (called by the kernel)
    # ------------------------------------------------------------------

    def run_handler(self, event: HandlerEvent) -> None:
        """Execute one handler invocation; kernel guarantees eligibility."""
        if self.dead:
            return
        interceptor = None
        if event.is_completion and event.asker is not None:
            interceptor = self.awaited_completions.pop(event.asker.tid, None)
        if interceptor is not None:
            body = self._interception_body(event, interceptor)
        else:
            body = _as_generator(self.program.handler(self.api, event))
        self._run_invocation(body, event)

    def _interception_body(self, event: HandlerEvent, future) -> Generator:
        # The hidden SODAL handler code that completes a blocking request
        # (§4.1.1): note the completion and return to the waiting context.
        yield self.kernel.config.timing.queue_op_us / 2
        future.resolve(event)

    def _run_invocation(self, body: Generator, event: HandlerEvent) -> None:
        context = self._current_context()
        if context is not None and context.alive:
            context.pause()
        self.current_event = event

        def wrapper() -> Generator:
            yield self.kernel.config.timing.context_switch_us
            yield from body

        process = self.sim.spawn(wrapper(), name=f"{self.name}.handler")
        self.handler_process = process
        process.done_future.add_callback(
            lambda _future: self._invocation_done(process)
        )

    def _invocation_done(self, process: "Process") -> None:
        self.activity_counter += 1
        for waiter in self._activity_waiters:
            if not waiter.resolved:
                waiter.resolve(None)
        if self.dead:
            return
        if process is not self.handler_process:
            # A detached continuation (blocking request in handler) ended:
            # it was living as a task-level context.
            if process in self._contexts:
                self._contexts.remove(process)
                self._resume_context()
            return
        self.handler_process = None
        self.current_event = None
        next_event = self.kernel.client_endhandler()
        if next_event is not None:
            self._run_invocation_for(next_event)
        elif self._booting:
            self._booting = False
            self._start_task()
        else:
            self._resume_context()

    def _run_invocation_for(self, event: HandlerEvent) -> None:
        """Immediate re-invocation out of the kernel's completion queue."""
        self.run_handler(event)

    def detach_handler_for_blocking(self) -> None:
        """SODAL's saved-PC trick: the current handler invocation ends
        now; the caller's generator continues as a task-level context."""
        process = self.handler_process
        if process is None:
            raise RuntimeError("not in a handler invocation")
        self.handler_process = None
        self.current_event = None
        self._contexts.append(process)
        if self._booting:
            # The continuation of Initialization still runs before the
            # task starts; the task will start when it finishes.
            self._booting = False
            self._start_task_paused()
        next_event = self.kernel.client_endhandler()
        if next_event is not None:
            self._run_invocation_for(next_event)

    def _start_task_paused(self) -> None:
        self._start_task()
        if self.task_process is not None:
            self.task_process.pause()
            # Keep the continuation on top of the stack.
            self._contexts.remove(self.task_process)
            self._contexts.insert(0, self.task_process)

    def _current_context(self) -> Optional["Process"]:
        return self._contexts[-1] if self._contexts else None

    def _resume_context(self) -> None:
        context = self._current_context()
        if context is not None and context.alive:
            context.resume()

    def wait_activity(
        self, predicate: Callable[[], bool], delay_us: float, cap_us: float
    ):
        """Sleep until a handler invocation finishes or a tick finds
        something to wake for (the WAIT instruction: wake on interrupt).

        Ticks come after ``delay_us``, then after twice that, and so on
        up to ``cap_us``.  A tick wakes the caller by resolving the
        future it sleeps on, unless waking could only lead straight back
        here: when (a) the caller would run at once — alive, not paused,
        no handler executing, (b) no other event is due at this instant,
        so nothing runs between this tick and that wake-up, and (c)
        ``predicate()`` is false, the tick sleeps again in place, and
        moves the clock itself up to the simulator's
        :meth:`~repro.sim.engine.Simulator.skip_limit`.  DESIGN.md §11.1
        has the argument that this is the same evaluation at the same
        instant, never an earlier or a dropped one.  With ``delay_us``
        infinite there are no ticks and no timer at all: only a handler
        invocation wakes the caller.

        A generator for client code; returns the sleep that follows the
        last tick: ``delay = yield from processor.wait_activity(...)``.
        """
        sim = self.sim
        # The caller: not always the top context — a step that has just
        # started a handler (OPEN, the end of an ACCEPT) runs on.
        process = next(
            (
                p
                for p in (self.handler_process, *reversed(self._contexts))
                if p is not None and p.stepping
            ),
            None,
        )
        future = sim.new_future()

        def tick() -> None:
            nonlocal delay_us, timer
            in_place = (
                process is not None
                and process.alive
                and not process.paused
                and self.handler_process is None
                and sim.quiet()
            )
            # Only the clock moves below, and a predicate has no side
            # effects: the limit holds for every look of this callback.
            limit = sim.skip_limit() if in_place else -math.inf
            while True:
                delay_us = min(delay_us * 2.0, cap_us)
                if not in_place or predicate():
                    break
                instant = sim.now + delay_us
                if instant > limit:
                    timer = sim.schedule(delay_us, tick)
                    return
                sim.now = instant
            if not future.resolved:
                future.resolve(None)

        timer = None if delay_us == math.inf else sim.schedule(delay_us, tick)
        self._activity_waiters.append(future)
        try:
            yield future
        finally:
            # Also the way out when the context is killed mid-wait.
            if timer is not None:
                timer.cancel()
            self._activity_waiters.remove(future)
        return delay_us

    # ------------------------------------------------------------------
    # state queries used by the kernel
    # ------------------------------------------------------------------

    @property
    def executing_handler(self) -> bool:
        return self.handler_process is not None

    @property
    def can_take_interrupt(self) -> bool:
        """Is the client CPU able to enter the handler right now?

        While the client is suspended inside a blocking kernel primitive
        no client code can run, so interrupts pend (§5.2.1).
        """
        return (
            not self.dead
            and self.booted
            and not self.executing_handler
            and not self.in_blocking_primitive
        )

    # ------------------------------------------------------------------
    # death
    # ------------------------------------------------------------------

    def kill(self) -> None:
        """Terminate the client (DIE, KILL pattern, or crash)."""
        if self.dead:
            return
        self.dead = True
        self.current_event = None
        for future in self.awaited_completions.values():
            if not future.resolved:
                future.fail(_client_died_error())
        self.awaited_completions.clear()
        processes = list(self._contexts)
        if self.handler_process is not None:
            processes.append(self.handler_process)
        self._contexts.clear()
        self.handler_process = None
        self.task_process = None
        for process in processes:
            if process.alive:
                process.kill()

    def __repr__(self) -> str:
        state = (
            "dead"
            if self.dead
            else ("handler" if self.executing_handler else "task")
        )
        return f"<ClientProcessor {self.name} ({state})>"


def _client_died_error() -> BaseException:
    from repro.sim.process import ProcessKilled

    return ProcessKilled()


def _as_generator(value) -> Generator:
    """Allow program sections to be plain functions returning None."""
    if value is None:

        def empty() -> Generator:
            return
            yield  # pragma: no cover

        return empty()
    return value
