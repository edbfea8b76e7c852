"""Fault-schedule scenarios: timed actions over a built workload.

A :class:`Scenario` is an ordered tuple of *actions*, each a frozen
dataclass naming a virtual time and a fault to inject.  Actions refer to
nodes by their workload *role name* (``"server"``, ``"client"``, ...)
so one schedule applies to every workload in
:mod:`repro.workloads`.

Every action's ``repr`` is a valid constructor call; the shrinker
(:mod:`repro.chaos.shrink`) relies on this to print a minimal failing
schedule as a ready-to-paste regression test.

Actions are deliberately forgiving at fire time (a ``ClientDie`` for an
already-dead client is a no-op): the shrinker removes actions one at a
time, and the survivors must still apply cleanly in any combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.workloads import BuiltWorkload
from repro.core.node import SodaNode
from repro.net.frame import Frame

#: Time excused at the end of a run: a REQUEST issued inside the last
#: ``GRACE_US`` may legitimately still be pending at the horizon, and
#: every fault path (retransmission exhaustion, probe death, DISCOVER
#: windows) resolves well inside it.
GRACE_US = 3_000_000.0


@dataclass(frozen=True)
class LossWindow:
    """Raise probabilistic loss/corruption between two instants."""

    start_us: float
    end_us: float
    loss: float = 0.0
    corruption: float = 0.0

    def apply(self, built: BuiltWorkload) -> None:
        faults = built.net.faults
        saved: List[Tuple[float, float]] = []

        def begin() -> None:
            saved.append(
                (faults.loss_probability, faults.corruption_probability)
            )
            faults.loss_probability = self.loss
            faults.corruption_probability = self.corruption

        def end() -> None:
            faults.loss_probability, faults.corruption_probability = (
                saved.pop() if saved else (0.0, 0.0)
            )

        built.net.sim.at(self.start_us, begin)
        built.net.sim.at(self.end_us, end)


@dataclass(frozen=True)
class DuplicateWindow:
    """Deliver a fraction of frames twice between two instants.

    The second copy arrives ``delay_us`` later — long enough to land
    after the receiver has already acted on the first, which is exactly
    the replay the transaction-ID/epoch machinery must absorb.
    """

    start_us: float
    end_us: float
    probability: float = 0.1
    delay_us: float = 150.0

    def apply(self, built: BuiltWorkload) -> None:
        faults = built.net.faults
        saved: List[Tuple[float, float]] = []

        def begin() -> None:
            saved.append(
                (faults.duplicate_probability, faults.duplicate_delay_us)
            )
            faults.duplicate_probability = self.probability
            faults.duplicate_delay_us = self.delay_us

        def end() -> None:
            faults.duplicate_probability, faults.duplicate_delay_us = (
                saved.pop() if saved else (0.0, 150.0)
            )

        built.net.sim.at(self.start_us, begin)
        built.net.sim.at(self.end_us, end)


@dataclass(frozen=True)
class ReorderWindow:
    """Hold back a fraction of deliveries between two instants.

    A held delivery arrives ``extra_us`` late, so frames transmitted
    after it overtake it — out-of-order arrival without loss.
    """

    start_us: float
    end_us: float
    probability: float = 0.1
    extra_us: float = 400.0

    def apply(self, built: BuiltWorkload) -> None:
        faults = built.net.faults
        saved: List[Tuple[float, float]] = []

        def begin() -> None:
            saved.append(
                (faults.reorder_probability, faults.reorder_extra_us)
            )
            faults.reorder_probability = self.probability
            faults.reorder_extra_us = self.extra_us

        def end() -> None:
            faults.reorder_probability, faults.reorder_extra_us = (
                saved.pop() if saved else (0.0, 400.0)
            )

        built.net.sim.at(self.start_us, begin)
        built.net.sim.at(self.end_us, end)


@dataclass(frozen=True)
class Partition:
    """Sever all traffic between ``isolate`` roles and everyone else."""

    start_us: float
    end_us: float
    isolate: Tuple[str, ...]

    def apply(self, built: BuiltWorkload) -> None:
        group = frozenset(built.mid_of(role) for role in self.isolate)

        def crosses(frame: Frame, receiver_mid: int) -> bool:
            return (frame.src in group) != (receiver_mid in group)

        faults = built.net.faults
        built.net.sim.at(
            self.start_us, faults.add_drop_predicate, crosses
        )

        def heal() -> None:
            if crosses in faults._drop_predicates:
                faults.remove_drop_predicate(crosses)

        built.net.sim.at(self.end_us, heal)


@dataclass(frozen=True)
class TargetedDrop:
    """Arm a scripted strike: drop the ``(skip+1)``-th matching frame.

    ``ptype`` matches :attr:`Packet.ptype` by value (``"accept"``,
    ``"ack"``, ...); ``src``/``dst`` optionally pin the strike to one
    role's traffic.  Like all scripted drops this is per *frame*: a
    matching broadcast burns one unit of ``count``.
    """

    at_us: float
    ptype: str
    src: Optional[str] = None
    dst: Optional[str] = None
    skip: int = 0
    count: int = 1

    def apply(self, built: BuiltWorkload) -> None:
        src_mid = None if self.src is None else built.mid_of(self.src)
        dst_mid = None if self.dst is None else built.mid_of(self.dst)

        def matches(frame: Frame) -> bool:
            packet_type = getattr(frame.payload, "ptype", None)
            if packet_type is None or packet_type.value != self.ptype:
                return False
            if src_mid is not None and frame.src != src_mid:
                return False
            if dst_mid is not None and frame.dst != dst_mid:
                return False
            return True

        built.net.sim.at(
            self.at_us,
            built.net.faults.drop_matching,
            matches,
            self.count,
            self.skip,
        )


def _client_alive(node: SodaNode) -> bool:
    client = node.kernel.client
    return client is not None and not client.dead


@dataclass(frozen=True)
class ClientDie:
    """DIE the role's client processor (§3.6.1) mid-run."""

    at_us: float
    role: str

    def apply(self, built: BuiltWorkload) -> None:
        node = built.net.nodes[built.mid_of(self.role)]

        def fire() -> None:
            if node.kernel.offline_until is not None:
                return  # node is crashed; nothing to DIE
            if _client_alive(node):
                node.kernel.client_die()

        built.net.sim.at(self.at_us, fire)


@dataclass(frozen=True)
class NodeCrash:
    """Power-fail the role's whole node (client and kernel state lost)."""

    at_us: float
    role: str

    def apply(self, built: BuiltWorkload) -> None:
        node = built.net.nodes[built.mid_of(self.role)]

        def fire() -> None:
            if node.kernel.offline_until is None:
                node.crash()

        built.net.sim.at(self.at_us, fire)


@dataclass(frozen=True)
class Reboot:
    """Re-install the role's program from its workload factory.

    A no-op while the previous client is still alive; if the node is in
    its post-crash quiet period, the boot is deferred until it ends.
    """

    at_us: float
    role: str

    def apply(self, built: BuiltWorkload) -> None:
        mid = built.mid_of(self.role)
        node = built.net.nodes[mid]
        role = built.role_for(mid)

        def fire() -> None:
            if _client_alive(node):
                return
            boot_at = built.net.sim.now
            if node.kernel.offline_until is not None:
                boot_at = node.kernel.offline_until
            node.install_program(role.factory(), boot_at_us=boot_at)

        built.net.sim.at(self.at_us, fire)


@dataclass(frozen=True)
class ThunderingHerd:
    """Clone a role's program onto ``clones`` extra nodes at once.

    The clones boot together at ``at_us`` (staggered by ``stagger_us``
    each so their boot traffic does not serialize into lockstep) and run
    the same program factory as the named role — N clients hammering the
    one server.  This is a *load* fault, not a failure: it exercises the
    kernel's BUSY/overload admission path rather than its crash paths.

    Clone nodes get fresh auto-assigned MIDs above the workload's roles;
    they are not part of the spec, so role-addressed actions (Reboot,
    ClientDie) never touch them.
    """

    at_us: float
    role: str
    clones: int = 6
    stagger_us: float = 400.0

    def apply(self, built: BuiltWorkload) -> None:
        role = built.role_for(built.mid_of(self.role))
        # Nodes must exist before the run starts (the bus delivers only
        # to registered nodes); the *boot* is what fires at at_us.
        for i in range(self.clones):
            built.net.add_node(
                program=role.factory(),
                name=f"{self.role}-herd{i}",
                boot_at_us=self.at_us + i * self.stagger_us,
            )


@dataclass(frozen=True)
class PowerLoss:
    """Power-fail several roles *at once*, then reboot them.

    The simultaneous cut is the point: with every replica of a cluster
    down at the same instant, no surviving peer holds the state, so
    anti-entropy cannot repair an amnesiac reboot — only durable local
    state (repro.durability) brings acknowledged writes back.  The
    crash goes through :meth:`SodaNode.crash`, so each node's disk
    takes the power hit too (unsynced writes lost, possibly torn).
    """

    at_us: float
    roles: Tuple[str, ...]
    reboot_delay_us: float = 500_000.0

    @property
    def end_us(self) -> float:
        # Scenario.last_action_us keys off this: the run must extend
        # past the reboots, not just the cut.
        return self.at_us + self.reboot_delay_us

    def apply(self, built: BuiltWorkload) -> None:
        for role_name in self.roles:
            mid = built.mid_of(role_name)
            node = built.net.nodes[mid]
            role = built.role_for(mid)

            def cut(node: SodaNode = node) -> None:
                if node.kernel.offline_until is None:
                    node.crash()

            def reboot(node: SodaNode = node, role=role) -> None:
                if _client_alive(node):
                    return
                boot_at = built.net.sim.now
                if node.kernel.offline_until is not None:
                    boot_at = node.kernel.offline_until
                node.install_program(role.factory(), boot_at_us=boot_at)

            built.net.sim.at(self.at_us, cut)
            built.net.sim.at(self.at_us + self.reboot_delay_us, reboot)


#: Valid :class:`DiskFault` kinds.
DISK_FAULT_KINDS = ("torn_write", "bitrot", "fsync_drop", "disk_full")


@dataclass(frozen=True)
class DiskFault:
    """Turn a dial on the role's :class:`FaultDisk` fault plan.

    * ``torn_write`` — every future power loss tears the in-flight
      write (keeps a prefix of the unsynced stream);
    * ``bitrot`` — flip ``count`` random bits in durable files whose
      name contains ``match`` (default: the WAL segments);
    * ``fsync_drop`` — the next ``count`` fsyncs lie: report success,
      persist nothing;
    * ``disk_full`` — reject writes after ``count`` more bytes.

    A no-op on diskless roles or honest disks, so the one schedule
    sweeps every workload.
    """

    at_us: float
    role: str
    kind: str
    count: int = 1
    match: str = "wal"

    def __post_init__(self) -> None:
        if self.kind not in DISK_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {DISK_FAULT_KINDS}, got {self.kind!r}"
            )

    def apply(self, built: BuiltWorkload) -> None:
        node = built.net.nodes[built.mid_of(self.role)]

        def fire() -> None:
            disk = getattr(node, "disk", None)
            plan = getattr(disk, "plan", None)
            if plan is None:
                return
            if self.kind == "torn_write":
                plan.torn_write_probability = 1.0
            elif self.kind == "bitrot":
                disk.flip_bits(self.match, self.count)
            elif self.kind == "fsync_drop":
                plan.fsync_drop_next += self.count
            elif self.kind == "disk_full":
                plan.full_after_bytes = self.count

        built.net.sim.at(self.at_us, fire)


Action = Union[
    LossWindow,
    DuplicateWindow,
    ReorderWindow,
    Partition,
    TargetedDrop,
    ClientDie,
    NodeCrash,
    Reboot,
    ThunderingHerd,
    PowerLoss,
    DiskFault,
]

#: Action classes, exported for reproducer scripts.
ACTION_TYPES: Tuple[type, ...] = (
    LossWindow,
    DuplicateWindow,
    ReorderWindow,
    Partition,
    TargetedDrop,
    ClientDie,
    NodeCrash,
    Reboot,
    ThunderingHerd,
    PowerLoss,
    DiskFault,
)


@dataclass(frozen=True)
class Scenario:
    """A named, ordered fault schedule."""

    name: str
    actions: Tuple[Action, ...]

    def apply(self, built: BuiltWorkload) -> None:
        for action in self.actions:
            action.apply(built)

    def run(self, built: BuiltWorkload) -> float:
        """Apply, run ``built`` to the horizon, and return the horizon:
        the workload's own, or two grace periods past the last fault,
        whichever is later."""
        self.apply(built)
        horizon = max(
            built.spec.until_us, self.last_action_us + 2 * GRACE_US
        )
        built.net.run(until=horizon)
        return horizon

    @property
    def last_action_us(self) -> float:
        """The latest instant any action touches the run."""
        latest = 0.0
        for action in self.actions:
            for attr in ("at_us", "end_us"):
                value = getattr(action, attr, None)
                if value is not None:
                    latest = max(latest, value)
        return latest

    def without(self, index: int) -> "Scenario":
        """A copy with one action removed (shrinking step)."""
        remaining = self.actions[:index] + self.actions[index + 1 :]
        return Scenario(name=self.name, actions=remaining)
