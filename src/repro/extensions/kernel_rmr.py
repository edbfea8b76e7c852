"""Client helpers for kernel-serviced remote memory reference (§6.17.2).

With ``KernelConfig(kernel_rmr=True)``, a client registers a memory
region (``api.kernel.client_register_rmr_memory(buf)``) and the kernel
itself answers PEEK/POKE REQUESTs on the reserved RMR pattern — no
handler invocation, no client overhead at the server.  CLOSE gates
access (the paper's proposed synchronization); a reference arriving
while CLOSEd is REJECTed and retried here.

Compare with :mod:`repro.facilities.rmr`, the pure-library version the
paper actually recommends; ``tests/bench/test_paper_claims.py::
test_kernel_rmr_vs_library_rmr`` measures the difference.
"""

from __future__ import annotations

from typing import Generator

from repro.core.boot import KERNEL_RMR_PATTERN
from repro.core.buffers import Buffer
from repro.core.errors import RequestStatus, SodaError
from repro.core.signatures import ServerSignature


def _rmr_sig(mid: int) -> ServerSignature:
    return ServerSignature(mid, KERNEL_RMR_PATTERN)


def kernel_peek(
    api, mid: int, address: int, size: int, retries: int = 20
) -> Generator:
    """Read remote memory through the kernel RMR handler."""
    for _attempt in range(retries):
        buf = Buffer(size)
        completion = yield from api.b_get(_rmr_sig(mid), arg=address, get=buf)
        if completion.status is RequestStatus.COMPLETED:
            return buf.data
        if completion.status is RequestStatus.REJECTED:
            yield api.compute(2_000)  # CLOSEd or bad address; retry
            continue
        break
    raise SodaError(f"kernel peek failed: {completion.status.value}")


def kernel_poke(
    api, mid: int, address: int, value, retries: int = 20
) -> Generator:
    """Write remote memory through the kernel RMR handler."""
    for _attempt in range(retries):
        completion = yield from api.b_put(_rmr_sig(mid), arg=address, put=value)
        if completion.status is RequestStatus.COMPLETED:
            return completion.taken_put
        if completion.status is RequestStatus.REJECTED:
            yield api.compute(2_000)
            continue
        break
    raise SodaError(f"kernel poke failed: {completion.status.value}")
