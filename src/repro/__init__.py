"""repro: a reproduction of Kepecs & Solomon's SODA (1984).

SODA is a communications adaptor that doubles as the kernel of a
distributed operating system.  This package provides:

* :mod:`repro.sim` — a deterministic discrete-event simulator;
* :mod:`repro.net` — the 1 Mbit/s broadcast bus (Megalink stand-in);
* :mod:`repro.transport` — Delta-t records, packets, retransmission;
* :mod:`repro.core` — the SODA kernel, client processor, nodes/networks;
* :mod:`repro.sodal` — the SODAL programming layer (blocking requests,
  queues, ACCEPT_CURRENT, DISCOVER);
* :mod:`repro.facilities` — ports, RPC, remote memory reference, links,
  CSP rendezvous, timeouts (Chapter 4's higher-level facilities);
* :mod:`repro.apps` — the paper's five programmed examples;
* :mod:`repro.baselines` — a *MOD-style port runtime for comparison;
* :mod:`repro.bench` — harnesses that regenerate the paper's tables.

Quickstart::

    from repro import Network, ClientProgram, make_well_known_pattern

    PING = make_well_known_pattern(0o346)

    class Server(ClientProgram):
        def initialization(self, api, parent_mid):
            yield from api.advertise(PING)
        def handler(self, api, event):
            if event.is_arrival:
                yield from api.accept_current_signal()

    class Client(ClientProgram):
        def task(self, api):
            server = yield from api.discover(PING)
            completion = yield from api.b_signal(server)
            print("signal status:", completion.status)

    net = Network(seed=7)
    net.add_node(program=Server())
    net.add_node(program=Client())
    net.run(until=1_000_000)
"""

from repro.core import (
    AcceptStatus,
    BROADCAST,
    Buffer,
    CancelStatus,
    ClientProcessor,
    ClientProgram,
    HandlerEvent,
    HandlerReason,
    KernelConfig,
    Network,
    Pattern,
    RequestStatus,
    RequesterSignature,
    ServerSignature,
    SodaKernel,
    SodaNode,
    TimingModel,
    make_reserved_pattern,
    make_well_known_pattern,
)
from repro.sodal.api import OK, Completion, SodalApi
from repro.sodal.queueing import Queue

__version__ = "1.0.0"

__all__ = [
    "AcceptStatus",
    "BROADCAST",
    "Buffer",
    "CancelStatus",
    "ClientProcessor",
    "ClientProgram",
    "Completion",
    "HandlerEvent",
    "HandlerReason",
    "KernelConfig",
    "Network",
    "OK",
    "Pattern",
    "Queue",
    "RequestStatus",
    "RequesterSignature",
    "ServerSignature",
    "SodaKernel",
    "SodaNode",
    "SodalApi",
    "TimingModel",
    "__version__",
    "make_reserved_pattern",
    "make_well_known_pattern",
]
