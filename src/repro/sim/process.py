"""Coroutine processes on top of the event queue.

A process wraps a Python generator.  The generator models a locus of
control (a client task, a client interrupt handler, a workload driver) and
communicates with the engine by *yielding*:

``yield <number>``
    Consume that many microseconds of simulated time, then continue.

``yield <SimFuture>``
    Suspend until the future is resolved; the resolved value is sent back
    into the generator (an exception set on the future is raised there).

``yield None``
    A pure scheduling point: continue at the same instant, but give the
    engine a chance to deliver interrupts first.  Busy-wait loops (the
    paper's ``idle()``) are written as ``yield IDLE_POLL_US``.

Processes can be *paused* (used to suspend a client task while its handler
runs) and *killed* (a :class:`ProcessKilled` is thrown into the generator,
modelling the KILL pattern / processor crash).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class ProcessKilled(BaseException):
    """Thrown into a process generator when the process is killed.

    Derives from BaseException so that application code catching broad
    ``Exception`` cannot accidentally survive its own death.
    """


class SimFuture:
    """A one-shot synchronization cell.

    ``resolve``/``fail`` may be called exactly once; waiters registered via
    ``add_callback`` (or by a process yielding the future) run at the
    moment of resolution, in registration order.
    """

    __slots__ = ("sim", "resolved", "value", "exception", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.resolved = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["SimFuture"], None]] = []

    def resolve(self, value: Any = None) -> None:
        if self.resolved:
            raise RuntimeError("future already resolved")
        self.resolved = True
        self.value = value
        self._fire()

    def fail(self, exception: BaseException) -> None:
        if self.resolved:
            raise RuntimeError("future already resolved")
        self.resolved = True
        self.exception = exception
        self._fire()

    def add_callback(self, fn: Callable[["SimFuture"], None]) -> None:
        if self.resolved:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class Process:
    """Drives a generator against the simulator clock."""

    NEW = "new"
    RUNNING = "running"
    DONE = "done"
    KILLED = "killed"
    FAILED = "failed"

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator,
        name: str = "proc",
    ) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.state = Process.NEW
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done_future = SimFuture(sim)
        self._paused = False
        # Continuation deferred because the process was paused when it
        # became runnable: ("value"|"throw", payload) or None.
        self._deferred: Optional[tuple] = None
        self._pending_event = None
        self._in_step = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Process":
        if self.state is not Process.NEW:
            raise RuntimeError(f"process {self.name} already started")
        self.state = Process.RUNNING
        self._pending_event = self.sim.schedule(0.0, self._step, "value", None)
        return self

    def kill(self) -> None:
        """Terminate the process; its generator sees ProcessKilled."""
        if self.state in (Process.DONE, Process.KILLED, Process.FAILED):
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self._deferred = None
        self._paused = False
        was_new = self.state is Process.NEW
        self.state = Process.KILLED
        if self._in_step:
            # The process is killing itself (e.g. DIE from client code):
            # the generator frame is live, so it cannot be thrown into.
            # It simply never resumes past its next yield.
            pass
        elif not was_new:
            try:
                self.gen.throw(ProcessKilled())
            except (ProcessKilled, StopIteration):
                pass
        else:
            self.gen.close()
        if not self.done_future.resolved:
            self.done_future.fail(ProcessKilled())

    def pause(self) -> None:
        """Defer further execution until :meth:`resume`."""
        self._paused = True

    def resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        if self._deferred is not None and self.state is Process.RUNNING:
            kind, payload = self._deferred
            self._deferred = None
            self._pending_event = self.sim.schedule(0.0, self._step, kind, payload)

    @property
    def alive(self) -> bool:
        return self.state in (Process.NEW, Process.RUNNING)

    @property
    def paused(self) -> bool:
        """A continuation that became runnable now would be deferred."""
        return self._paused

    @property
    def stepping(self) -> bool:
        """The generator is executing right now (inside one ``_step``)."""
        return self._in_step

    # -- engine plumbing -----------------------------------------------

    def _step(self, kind: str, payload: Any) -> None:
        self._pending_event = None
        if self.state is not Process.RUNNING:
            return
        if self._paused:
            self._deferred = (kind, payload)
            return
        self._in_step = True
        try:
            if kind == "throw":
                yielded = self.gen.throw(payload)
            else:
                yielded = self.gen.send(payload)
        except StopIteration as stop:
            if self.state is Process.RUNNING:
                self.state = Process.DONE
                self.result = stop.value
                self.done_future.resolve(stop.value)
            return
        except ProcessKilled:
            self.state = Process.KILLED
            if not self.done_future.resolved:
                self.done_future.fail(ProcessKilled())
            return
        except Exception as exc:  # pragma: no cover - surfaced to caller
            self.state = Process.FAILED
            self.error = exc
            self.done_future.fail(exc)
            raise
        finally:
            self._in_step = False
        if self.state is not Process.RUNNING:
            # Killed itself during this step; abandon the continuation.
            return
        self._arm(yielded)

    def _arm(self, yielded: Any) -> None:
        if yielded is None:
            self._pending_event = self.sim.schedule(0.0, self._step, "value", None)
        elif isinstance(yielded, (int, float)):
            self._pending_event = self.sim.schedule(
                float(yielded), self._step, "value", None
            )
        elif isinstance(yielded, SimFuture):
            yielded.add_callback(self._on_future)
        else:
            raise TypeError(
                f"process {self.name} yielded unsupported value {yielded!r}"
            )

    def _on_future(self, future: SimFuture) -> None:
        if self.state is not Process.RUNNING:
            return
        if future.exception is not None:
            self._pending_event = self.sim.schedule(
                0.0, self._step, "throw", future.exception
            )
        else:
            self._pending_event = self.sim.schedule(
                0.0, self._step, "value", future.value
            )

    def __repr__(self) -> str:
        return f"<Process {self.name} {self.state}>"
