"""repro.netreal — the SODA stack over real sockets and wall-clock time.

The simulator's :class:`~repro.sim.interface.SchedulerBackend` duck
type is the seam: :class:`~repro.netreal.scheduler.WallClockScheduler`
implements it over an asyncio event loop, and :class:`~repro.netreal.
udp.UdpMedium` replaces the broadcast bus with localhost UDP datagrams
carrying the :mod:`repro.netreal.wire` binary frame codec.  The kernel,
connections, transport policies, and client programs are untouched.

Entry points: ``python -m repro real <workload>`` (multi-process,
:mod:`repro.netreal.runner`), ``python -m repro bench real``
(:mod:`repro.bench.real`), or in-process via :class:`~repro.netreal.
node.RealNetwork`.  See docs/NET.md.
"""

from repro.netreal.node import RealNetwork
from repro.netreal.scheduler import WallClockScheduler, WallClockTimer
from repro.netreal.trace_io import (
    dump_trace,
    load_trace,
    merge_records,
    merge_traces,
)
from repro.netreal.udp import Impairments, UdpMedium, UdpNic
from repro.netreal.wire import (
    MAX_DATAGRAM_BYTES,
    WIRE_VERSION,
    WireDecodeError,
    WireEncodeError,
    decode_frame,
    encode_frame,
)

__all__ = [
    "RealNetwork",
    "WallClockScheduler",
    "WallClockTimer",
    "dump_trace",
    "load_trace",
    "merge_records",
    "merge_traces",
    "Impairments",
    "UdpMedium",
    "UdpNic",
    "MAX_DATAGRAM_BYTES",
    "WIRE_VERSION",
    "WireDecodeError",
    "WireEncodeError",
    "decode_frame",
    "encode_frame",
]
