"""Remote procedure call over SODA (§4.2.2).

The caller PUTs the in-parameters and then issues a blocking GET for the
results; both use the pattern bound to the remote procedure.  The server
ACCEPTs the PUT to obtain the parameters, runs the procedure when both
the PUT and the GET have arrived, and ACCEPTs the GET with the out
parameters, which unblocks the caller.

The paper's sketch serves one procedure and one caller at a time; this
implementation dispatches on the pattern (one procedure per pattern) and
queues concurrent callers per procedure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Generator, Optional

from repro.core.buffers import Buffer
from repro.core.client import ClientProgram
from repro.core.errors import AcceptStatus, RequestStatus, SodaError
from repro.core.patterns import Pattern
from repro.core.signatures import RequesterSignature, ServerSignature


@dataclass
class _CallState:
    """One caller's in-progress invocation."""

    caller_mid: int
    in_params: Optional[bytes] = None
    result_asker: Optional[RequesterSignature] = None

    @property
    def ready(self) -> bool:
        return self.in_params is not None and self.result_asker is not None


@dataclass
class _Procedure:
    fn: Callable[[bytes], bytes]
    #: Calls being assembled, keyed by caller MID (the PUT and GET of one
    #: invocation come from the same machine, in order).
    assembling: Dict[int, _CallState] = field(default_factory=dict)
    #: Fully-assembled calls awaiting execution.
    ready: Deque[_CallState] = field(default_factory=deque)


class RpcServer(ClientProgram):
    """Serves remote procedures; one pattern per procedure.

    ``procedures`` maps pattern -> fn(bytes) -> bytes.  Subclass or
    compose; to combine with other handler work, call
    :meth:`rpc_handle_arrival` from your handler and
    :meth:`rpc_serve_forever` from your task.
    """

    def __init__(self, procedures: Dict[Pattern, Callable[[bytes], bytes]]):
        self._procedures = {
            pattern: _Procedure(fn) for pattern, fn in procedures.items()
        }
        self.calls_served = 0

    def initialization(self, api, parent_mid):
        for pattern in self._procedures:
            yield from api.advertise(pattern)

    def handler(self, api, event):
        if event.is_arrival and event.pattern in self._procedures:
            yield from self.rpc_handle_arrival(api, event)

    def task(self, api):
        yield from self.rpc_serve_forever(api)

    # -- composable pieces ---------------------------------------------------

    def rpc_handle_arrival(self, api, event) -> Generator:
        procedure = self._procedures[event.pattern]
        state = procedure.assembling.get(event.asker.mid)
        if state is None:
            state = _CallState(caller_mid=event.asker.mid)
            procedure.assembling[event.asker.mid] = state
        if event.put_size > 0 and state.in_params is None:
            buf = Buffer(event.put_size)
            status = yield from api.accept_current_put(get=buf)
            if status is AcceptStatus.SUCCESS:
                state.in_params = buf.data
        elif event.get_size > 0 and state.result_asker is None:
            state.result_asker = event.asker
        else:
            # Protocol violation (e.g. two PUTs): reject it.
            yield from api.reject()
            return
        if state.ready:
            del procedure.assembling[event.asker.mid]
            procedure.ready.append(state)

    def rpc_serve_forever(self, api) -> Generator:
        while True:
            yield from api.poll(lambda: self._has_ready_call())
            pattern, procedure, state = self._next_ready()
            out = procedure.fn(state.in_params)
            yield from api.accept_get(state.result_asker, put=out)
            self.calls_served += 1

    def _has_ready_call(self) -> bool:
        return any(p.ready for p in self._procedures.values())

    def _next_ready(self):
        for pattern, procedure in self._procedures.items():
            if procedure.ready:
                return pattern, procedure, procedure.ready.popleft()
        raise RuntimeError("no ready call")  # pragma: no cover


def rpc_call(
    api,
    procedure: ServerSignature,
    in_params,
    out_capacity: int,
) -> Generator:
    """Client-side RPC: PUT parameters, blocking-GET results (§4.2.2).

    Returns the result bytes.  Raises SodaError if the remote machine
    crashed or rejected the call — "should the machine executing the
    remote subroutine crash, the caller should be informed so that the
    call may be repeated using a different machine".
    """
    completion = yield from api.b_put(procedure, put=in_params)
    if completion.status is not RequestStatus.COMPLETED:
        raise SodaError(f"rpc parameter transfer failed: {completion.status.value}")
    buf = Buffer(out_capacity)
    completion = yield from api.b_get(procedure, get=buf)
    if completion.status is not RequestStatus.COMPLETED:
        raise SodaError(f"rpc result transfer failed: {completion.status.value}")
    return buf.data
