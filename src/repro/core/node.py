"""Nodes and networks: wiring kernels, clients, and the bus together.

:class:`Network` is the top-level convenience for building a SODA network
(the "Typical SODA Network" of §1.3): it owns the simulator, the broadcast
bus, and a shared cost ledger; :meth:`Network.add_node` attaches a node
with an optional client program that boots at simulation start.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.boot import ProgramImage
from repro.core.client import ClientProcessor, ClientProgram
from repro.core.config import KernelConfig
from repro.core.errors import SodaError
from repro.core.kernel import SodaKernel
from repro.net.errors import FaultPlan
from repro.net.medium import BroadcastBus
from repro.net.nic import NetworkInterface
from repro.sim.engine import Simulator
from repro.sim.tracing import CostLedger


class SodaNode:
    """One network node: a SODA kernel plus (at most) one client."""

    def __init__(
        self,
        network: "Network",
        mid: int,
        machine_type: str = "generic",
        config: Optional[KernelConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.network = network
        self.mid = mid
        self.name = name or f"node{mid}"
        # The network names its interface class, so another backend (the
        # UDP NIC of repro.netreal) hosts an unmodified kernel.
        self.nic = network.NIC(network.bus, mid)
        self.kernel = SodaKernel(
            network.sim,
            self.nic,
            config=config or network.config,
            machine_type=machine_type,
            ledger=network.ledger,
            node=self,
        )
        self.client: Optional[ClientProcessor] = None
        # Optional durable storage (repro.durability).  SODA machines
        # are diskless by default — §3.5.2 reboots are amnesiac — so
        # this stays None unless the workload attaches a Disk.
        self.disk = None

    def install_program(
        self,
        program: ClientProgram,
        name: Optional[str] = None,
        boot_at_us: float = 0.0,
        parent_mid: Optional[int] = None,
        api_factory: Optional[Callable] = None,
    ) -> ClientProcessor:
        """Pre-load a client program, booting at ``boot_at_us``.

        This stands in for a node whose client was already resident when
        the network came up (ROM bootstrap, §3.5.3); clients loaded over
        the network use the boot protocol instead.
        """
        processor = ClientProcessor(
            self.network.sim,
            self.kernel,
            program,
            name=name or f"{self.name}.client",
            api_factory=api_factory,
        )
        self.client = processor
        boot_at = max(boot_at_us, self.network.sim.now)
        self.network.sim.at(boot_at, processor.boot, parent_mid)
        return processor

    def start_booted_client(
        self, image: Optional[ProgramImage], parent_mid: int
    ) -> ClientProcessor:
        """Start a client from a network-loaded core image (§3.5.2)."""
        if image is None:
            raise SodaError(f"{self.name}: boot SIGNAL without a loaded image")
        program = image.program_factory()
        processor = ClientProcessor(
            self.network.sim,
            self.kernel,
            program,
            name=f"{self.name}.{image.name}",
        )
        self.client = processor
        processor.boot(parent_mid)
        return processor

    def crash(self) -> None:
        """Power-fail the whole node (client and kernel state lost).

        A power failure hits the disk too: buffered-but-unsynced writes
        vanish (possibly mid-write — a torn tail) before RAM does.
        """
        if self.disk is not None:
            power_loss = getattr(self.disk, "power_loss", None)
            if power_loss is not None:
                power_loss()
        self.kernel.crash_node()

    def crash_client(self) -> None:
        """Crash just the client processor (kernel detects it; §3.6.1)."""
        self.kernel.client_die()

    def __repr__(self) -> str:
        return f"<SodaNode {self.name} mid={self.mid}>"


class Network:
    """A complete simulated SODA network."""

    #: What :class:`SodaNode` attaches to :attr:`bus`.
    NIC = NetworkInterface

    def __init__(
        self,
        seed: int = 0,
        config: Optional[KernelConfig] = None,
        bandwidth_bps: int = 1_000_000,
        propagation_us: float = 5.0,
        faults: Optional[FaultPlan] = None,
        keep_trace: bool = True,
    ) -> None:
        self.sim = Simulator(seed=seed, keep_trace=keep_trace)
        self.config = config or KernelConfig()
        self.faults = faults or FaultPlan()
        self.bus = BroadcastBus(
            self.sim,
            bandwidth_bps=bandwidth_bps,
            propagation_us=propagation_us,
            faults=self.faults,
        )
        self.ledger = CostLedger()
        self.nodes: Dict[int, SodaNode] = {}
        self._next_mid = 0

    def add_node(
        self,
        mid: Optional[int] = None,
        program: Optional[ClientProgram] = None,
        machine_type: str = "generic",
        config: Optional[KernelConfig] = None,
        name: Optional[str] = None,
        boot_at_us: float = 0.0,
    ) -> SodaNode:
        """Create a node; if ``program`` is given it boots at start."""
        if mid is None:
            mid = self._next_mid
        if mid in self.nodes:
            raise ValueError(f"MID {mid} already in use")
        self._next_mid = max(self._next_mid, mid + 1)
        node = SodaNode(self, mid, machine_type=machine_type, config=config, name=name)
        self.nodes[mid] = node
        if program is not None:
            node.install_program(program, boot_at_us=boot_at_us)
        return node

    def node(self, mid: int) -> SodaNode:
        return self.nodes[mid]

    # -- convenience passthroughs -------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        return self.sim.run(until=until, max_events=max_events)

    def run_until(self, predicate, timeout: float) -> bool:
        return self.sim.run_until(predicate, timeout)
