"""A SODA network over real sockets: :class:`RealNetwork`.

A :class:`~repro.core.node.Network` whose scheduler is the wall clock
and whose medium is localhost UDP: it inherits ``add_node`` / ``node`` /
``now`` and builds the same :class:`~repro.core.node.SodaNode` objects,
each on a :class:`~repro.netreal.udp.UdpNic` (the class's ``NIC``).  A
single RealNetwork hosts *all* nodes of an in-process loopback run, or
exactly *one* node of a multi-process run (the runner wires the registry
and shared epoch across processes).

The kernel, connection machinery, transport policies, and client
programs are byte-for-byte the simulator's; only the substrate below
``SchedulerBackend`` + NIC differs.  ``faults`` is the bus's
:class:`~repro.net.errors.FaultPlan`, asked per delivery exactly as on
the simulator, so chaos schedule actions turn the same dials on either
backend.  Only the wall-clock lifecycle
(``open`` / ``run`` / ``run_until`` / ``close``) is this class's own.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional

from repro.core.config import KernelConfig
from repro.core.node import Network, SodaNode
from repro.net.errors import FaultPlan
from repro.netreal.scheduler import WallClockScheduler
from repro.netreal.udp import UdpMedium, UdpNic
from repro.sim.tracing import CostLedger


class RealNetwork(Network):
    """A SODA network whose medium is localhost UDP."""

    NIC = UdpNic

    def __init__(
        self,
        seed: int = 0,
        config: Optional[KernelConfig] = None,
        bandwidth_bps: int = 1_000_000,
        faults: Optional[FaultPlan] = None,
        host: str = "127.0.0.1",
        keep_trace: bool = True,
    ) -> None:
        self.sim = WallClockScheduler(seed=seed, keep_trace=keep_trace)
        self.config = config or KernelConfig()
        self.faults = faults or FaultPlan()
        self.bus = UdpMedium(
            self.sim,
            bandwidth_bps=bandwidth_bps,
            faults=self.faults,
            host=host,
        )
        self.ledger = CostLedger()
        self.nodes: Dict[int, SodaNode] = {}
        self._next_mid = 0
        self._opened = False

    # -- lifecycle ----------------------------------------------------------

    async def open(self) -> Dict[int, tuple]:
        """Bind every node's UDP socket; returns mid -> (host, port)."""
        addresses = await self.bus.open()
        self._opened = True
        return addresses

    def _ensure_open(self) -> None:
        if not self._opened:
            self.sim.loop.run_until_complete(self.open())

    async def run_async(
        self, until: float, epoch_monotonic: Optional[float] = None
    ) -> None:
        """Run to the wall-clock horizon ``until`` (µs past the epoch)."""
        if not self._opened:
            await self.open()
        if not self.sim.started:
            self.sim.start(epoch_monotonic)
        await self.sim.sleep_until(until)

    def run(self, until: Optional[float] = None, max_events: int = 0) -> int:
        """Blocking run to ``until`` microseconds of wall time."""
        if until is None:
            raise ValueError(
                "a wall-clock run needs an explicit horizon (until=...)"
            )
        self._ensure_open()
        before = self.sim.events_processed
        self.sim.loop.run_until_complete(self.run_async(until))
        return self.sim.events_processed - before

    def run_until(
        self, predicate: Callable[[], bool], timeout: float
    ) -> bool:
        """Blocking: poll ``predicate`` until true or ``timeout`` µs."""
        self._ensure_open()
        if not self.sim.started:
            self.sim.start()
        return self.sim.loop.run_until_complete(
            self.sim.wait_until(predicate, timeout)
        )

    def close(self) -> None:
        """Close sockets and the event loop (idempotent)."""
        self.bus.close()
        if not self.sim.loop.is_closed():
            # Let transport close callbacks run before dropping the loop.
            self.sim.loop.run_until_complete(asyncio.sleep(0))
        self.sim.close()

    def __enter__(self) -> "RealNetwork":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
