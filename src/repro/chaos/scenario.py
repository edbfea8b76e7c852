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
A role action is a no-op on a network that does not host its role
(:meth:`BuiltWorkload.placed`), and a network action turns the plan of
the network it is applied to: a real run applies the schedule in every
node process, each governing its own sends.

The named schedules live here too (:data:`SCHEDULES`, built for a
workload by :func:`make_schedule`), with the kernel configuration every
chaos run uses (:func:`chaos_config`) and the count of what a run's
fault plans injected (:func:`fault_counts`).  This module imports no
judge, so a ``real-node`` process applies a schedule without one
(DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.workloads import BuiltWorkload, WorkloadSpec
from repro.core.config import KernelConfig
from repro.core.node import SodaNode
from repro.net.errors import FaultPlan
from repro.net.frame import Frame
from repro.transport.adaptive import AdaptivePolicy, deltat_for_policy
from repro.transport.retransmit import RetransmitPolicy

#: Time excused at the end of a run: a REQUEST issued inside the last
#: ``GRACE_US`` may legitimately still be pending at the horizon, and
#: every fault path (retransmission exhaustion, probe death, DISCOVER
#: windows) resolves well inside it.
GRACE_US = 3_000_000.0


def _window(
    built: BuiltWorkload, start_us: float, end_us: float, **dials: float
) -> None:
    """Set the bus fault plan's ``dials`` at ``start_us`` and put back
    what they held at ``end_us``, so windows nest.  A window that closes
    without having opened restores a quiet plan's values."""
    faults = built.net.faults
    saved: List[Dict[str, float]] = []

    def begin() -> None:
        saved.append({name: getattr(faults, name) for name in dials})
        for name, value in dials.items():
            setattr(faults, name, value)

    def end() -> None:
        restore = saved.pop() if saved else vars(FaultPlan())
        for name in dials:
            setattr(faults, name, restore[name])

    built.net.sim.at(start_us, begin)
    built.net.sim.at(end_us, end)


@dataclass(frozen=True)
class LossWindow:
    """Raise probabilistic loss/corruption between two instants."""

    start_us: float
    end_us: float
    loss: float = 0.0
    corruption: float = 0.0

    def apply(self, built: BuiltWorkload) -> None:
        _window(
            built, self.start_us, self.end_us,
            loss_probability=self.loss,
            corruption_probability=self.corruption,
        )


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
        _window(
            built, self.start_us, self.end_us,
            duplicate_probability=self.probability,
            duplicate_delay_us=self.delay_us,
        )


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
        _window(
            built, self.start_us, self.end_us,
            reorder_probability=self.probability,
            reorder_extra_us=self.extra_us,
        )


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


def _on_role(
    built: BuiltWorkload,
    at_us: float,
    role: str,
    fire: Callable[[BuiltWorkload, SodaNode], None],
) -> None:
    """Call ``fire(built, node)`` at ``at_us`` on the role's node; a
    no-op where this network does not host the role."""
    node = built.placed(role)
    if node is not None:
        built.net.sim.at(at_us, fire, built, node)


def _die(built: BuiltWorkload, node: SodaNode) -> None:
    if node.kernel.offline_until is not None:
        return  # node is crashed; nothing to DIE
    if _client_alive(node):
        node.kernel.client_die()


def _crash(built: BuiltWorkload, node: SodaNode) -> None:
    if node.kernel.offline_until is None:
        node.crash()


def _reboot(built: BuiltWorkload, node: SodaNode) -> None:
    if _client_alive(node):
        return
    boot_at = built.net.sim.now
    if node.kernel.offline_until is not None:
        boot_at = node.kernel.offline_until
    node.install_program(
        built.role_for(node.mid).factory(), boot_at_us=boot_at
    )


@dataclass(frozen=True)
class ClientDie:
    """DIE the role's client processor (§3.6.1) mid-run."""

    at_us: float
    role: str

    def apply(self, built: BuiltWorkload) -> None:
        _on_role(built, self.at_us, self.role, _die)


@dataclass(frozen=True)
class NodeCrash:
    """Power-fail the role's whole node (client and kernel state lost)."""

    at_us: float
    role: str

    def apply(self, built: BuiltWorkload) -> None:
        _on_role(built, self.at_us, self.role, _crash)


@dataclass(frozen=True)
class Reboot:
    """Re-install the role's program from its workload factory.

    A no-op while the previous client is still alive; if the node is in
    its post-crash quiet period, the boot is deferred until it ends.
    """

    at_us: float
    role: str

    def apply(self, built: BuiltWorkload) -> None:
        _on_role(built, self.at_us, self.role, _reboot)


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
    """Power-fail several roles *at once*, then reboot them: per role, a
    :class:`NodeCrash` at ``at_us`` and a :class:`Reboot` at :attr:`end_us`.

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
        for role in self.roles:
            NodeCrash(self.at_us, role).apply(built)
            Reboot(self.end_us, role).apply(built)


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
        _on_role(built, self.at_us, self.role, self._fire)

    def _fire(self, built: BuiltWorkload, node: SodaNode) -> None:
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
Actions = Tuple[Action, ...]


@dataclass(frozen=True)
class Scenario:
    """A named, ordered fault schedule."""

    name: str
    actions: Actions

    def apply(self, built: BuiltWorkload) -> None:
        for action in self.actions:
            action.apply(built)

    def horizon(self, spec: WorkloadSpec) -> float:
        """The workload's own horizon, or two grace periods past the
        last fault, whichever is later."""
        return max(spec.until_us, self.last_action_us + 2 * GRACE_US)

    def run(self, built: BuiltWorkload) -> float:
        """Apply, run ``built`` to :meth:`horizon`, and return it."""
        self.apply(built)
        horizon = self.horizon(built.spec)
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


def _server_role(spec: WorkloadSpec) -> str:
    return spec.roles[0].name


def _client_role(spec: WorkloadSpec) -> str:
    return spec.roles[-1].name


def _disk_roles(spec: WorkloadSpec) -> Tuple[str, ...]:
    """The roles the durability schedules target: every durable role
    (the KV replicas), or the server role on diskless workloads — where
    a power loss degenerates to crash + reboot."""
    roles = tuple(role.name for role in spec.roles if role.durable)
    return roles or (_server_role(spec),)


def _lossy(spec: WorkloadSpec) -> Actions:
    # Opens at t=0 so even short workloads (echo finishes in ~100ms)
    # run their whole transaction stream through the noise.
    return (LossWindow(0.0, 2_000_000.0, loss=0.15, corruption=0.05),)


def _partition(spec: WorkloadSpec) -> Actions:
    # Starts at 20ms — inside every workload's request stream — and
    # lasts past retransmission exhaustion, so requesters both declare
    # the server dead AND see it heal.
    return (Partition(20_000.0, 860_000.0, isolate=(_server_role(spec),)),)


def _strike(spec: WorkloadSpec) -> Actions:
    # Surgical frame kills: the very first REQUEST (hits every
    # workload), the 3rd ACCEPT reply, and the 2nd pure ACK — each
    # forces a distinct retransmission path.
    return (
        TargetedDrop(0.0, ptype="request", skip=0),
        TargetedDrop(0.0, ptype="accept", skip=2),
        TargetedDrop(0.0, ptype="ack", skip=1),
    )


def _client_flap(spec: WorkloadSpec) -> Actions:
    # DIE lands mid-transaction for every workload (even echo, whose
    # whole stream runs ~0.1-60ms); the reboot restarts the role.
    role = _client_role(spec)
    return (ClientDie(25_000.0, role=role), Reboot(600_000.0, role=role))


def _server_flap(spec: WorkloadSpec) -> Actions:
    role = _server_role(spec)
    return (ClientDie(22_000.0, role=role), Reboot(500_000.0, role=role))


def _server_crash(spec: WorkloadSpec) -> Actions:
    role = _server_role(spec)
    return (NodeCrash(30_000.0, role=role), Reboot(1_200_000.0, role=role))


def _calm(spec: WorkloadSpec) -> Actions:
    # The fault-free control row: a healthy run must produce zero crash
    # reports and zero false suspicions (docs/RECOVERY.md).
    return ()


def _crash_idle(spec: WorkloadSpec) -> Actions:
    # Crash-then-idle: the server dies and *nothing in the schedule*
    # brings it back.  Supervised workloads must self-heal through the
    # supervisor's BOOT/LOAD path; unsupervised ones must terminate
    # every pending span against the permanently-dead server.
    # t=15ms lands inside the supervised client's first exchange, so the
    # DIE leaves a DELIVERED-but-unACCEPTed record behind and the retry
    # shim's probe-proof path (arg=2) gets exercised, not just healing.
    return (ClientDie(15_000.0, role=_server_role(spec)),)


def _crash_load(spec: WorkloadSpec) -> Actions:
    # Power-fail the server node under request load; no scripted reboot
    # — recovery, if promised, is the supervisor's job.
    # t=334ms is inside a later exchange of the supervised client: a
    # power failure wipes the crashed-unaccepted memory with the rest of
    # the kernel, so the in-flight op must resolve as MAYBE (ambiguous),
    # never as a blind retry.
    return (NodeCrash(334_000.0, role=_server_role(spec)),)


def _sustained_loss(spec: WorkloadSpec) -> Actions:
    # The degradation tentpole: a 30% loss *plateau* held for three
    # seconds.  Not a burst to survive but a steady state to serve
    # through — the schedule the adaptive-vs-static transport benchmark
    # (repro.bench.transport) runs under.
    return (LossWindow(0.0, 3_000_000.0, loss=0.30),)


def _thundering_herd(spec: WorkloadSpec) -> Actions:
    # N clones of the client role hammer the one server from t=10ms;
    # exercises BUSY parking, the widened retry hints, and the kernel
    # overload controller's OVERLOAD shed path.
    return (ThunderingHerd(10_000.0, role=_client_role(spec), clones=6),)


def _duplicate(spec: WorkloadSpec) -> Actions:
    # Frame replay: 15% of surviving deliveries arrive twice, the echo
    # 150µs behind the original — stale REQUESTs, ACCEPT replies, and
    # replication APPENDs all replayed after they were acted on.
    return (DuplicateWindow(0.0, 2_500_000.0, probability=0.15),)


def _reorder(spec: WorkloadSpec) -> Actions:
    # Overtaking: 15% of deliveries held back 600µs so younger frames
    # pass them — out-of-order arrival with nothing actually lost.
    return (ReorderWindow(0.0, 2_500_000.0, probability=0.15, extra_us=600.0),)


def _primary_crash_load(spec: WorkloadSpec) -> Actions:
    # The KV failover headline: power-fail the first role (the initial
    # KV primary) under client load with *no scripted reboot* — a
    # supervised cluster must fail over, an unsupervised one must fail
    # every subsequent op definitively rather than lie.
    return (NodeCrash(200_000.0, role=_server_role(spec)),)


def _backup_flap(spec: WorkloadSpec) -> Actions:
    # Kill and reboot a *backup* (the second replica role when there is
    # one).  The primary keeps serving through the flap at quorum; the
    # rebooted backup comes back amnesiac and must anti-entropy catch up
    # before its CONFIRMs count again.
    roles = [role.name for role in spec.roles]
    role = roles[1] if len(roles) >= 3 else roles[-1]
    return (ClientDie(180_000.0, role=role), Reboot(900_000.0, role=role))


def _partition_heal(spec: WorkloadSpec) -> Actions:
    # Isolate the first role (the KV primary) long enough for the
    # supervisor to promote a replacement *during* the partition, then
    # heal: the stale primary resurfaces mid-epoch and must be fenced by
    # the first APPEND/CONFIRM it exchanges, not allowed to ack writes.
    return (
        Partition(120_000.0, 2_600_000.0, isolate=(_server_role(spec),)),
    )


def _flap(spec: WorkloadSpec) -> Actions:
    # Flapping node: die, get healed (supervisor), die again — forcing
    # two full supervision cycles.  For unsupervised workloads the
    # second DIE is a forgiving no-op on an already-dead client.
    role = _server_role(spec)
    return (ClientDie(25_000.0, role=role), ClientDie(1_292_000.0, role=role))


def _cluster_restart(spec: WorkloadSpec) -> Actions:
    # The durability headline: power-fail EVERY disk-bearing role at
    # the same instant under load, then reboot them all.  No surviving
    # peer holds the state, so anti-entropy cannot repair anyone —
    # acknowledged writes come back only from local WAL + snapshots.
    roles = _disk_roles(spec)
    return (PowerLoss(900_000.0, roles=roles, reboot_delay_us=500_000.0),)


def _cluster_power_loss(spec: WorkloadSpec) -> Actions:
    # cluster_restart with the disks set to tear: each node's in-flight
    # unsynced write survives only as a prefix (ALICE-style torn
    # write), so every recovery must walk a damaged WAL tail.
    roles = _disk_roles(spec)
    return tuple(
        DiskFault(0.0, role=role, kind="torn_write") for role in roles
    ) + (PowerLoss(900_000.0, roles=roles, reboot_delay_us=500_000.0),)


def _torn_write_primary(spec: WorkloadSpec) -> Actions:
    # Tear only the initial primary's disk, then power-fail it alone
    # mid-load: the cluster fails over while the old primary recovers
    # from a torn WAL and rejoins as a fenced backup.
    role = _disk_roles(spec)[0]
    return (
        DiskFault(0.0, role=role, kind="torn_write"),
        PowerLoss(700_000.0, roles=(role,), reboot_delay_us=500_000.0),
    )


def _bitrot_backup(spec: WorkloadSpec) -> Actions:
    # Flip bits in a backup's *durable* WAL, then power-cycle it: the
    # CRC framing must detect the rot (truncating replay at the damage,
    # never deserializing garbage) and anti-entropy must repair the
    # re-joined replica from its peers.
    roles = _disk_roles(spec)
    role = roles[1] if len(roles) >= 2 else roles[0]
    return (
        DiskFault(1_000_000.0, role=role, kind="bitrot", count=4),
        PowerLoss(1_050_000.0, roles=(role,), reboot_delay_us=400_000.0),
    )


#: Named schedule factories; each returns its actions, adapted to the
#: workload's role names, and the key names the :class:`Scenario`.
SCHEDULES: Dict[str, Callable[[WorkloadSpec], Actions]] = {
    "lossy": _lossy,
    "partition": _partition,
    "strike": _strike,
    "client_flap": _client_flap,
    "server_flap": _server_flap,
    "server_crash": _server_crash,
    "calm": _calm,
    "crash_idle": _crash_idle,
    "crash_load": _crash_load,
    "flap": _flap,
    "sustained_loss": _sustained_loss,
    "thundering_herd": _thundering_herd,
    "duplicate": _duplicate,
    "reorder": _reorder,
    "primary_crash_load": _primary_crash_load,
    "backup_flap": _backup_flap,
    "partition_heal": _partition_heal,
    "cluster_restart": _cluster_restart,
    "cluster_power_loss": _cluster_power_loss,
    "torn_write_primary": _torn_write_primary,
    "bitrot_backup": _bitrot_backup,
}

#: The recovery schedules judged by the self-heal check (plus every
#: other schedule: the check runs on all cells of supervised workloads).
RECOVERY_SCHEDULES = ("crash_idle", "crash_load", "flap")


def make_schedule(name: str, spec: WorkloadSpec) -> Scenario:
    try:
        factory = SCHEDULES[name]
    except KeyError:
        raise KeyError(
            f"unknown schedule {name!r}; choose from "
            f"{', '.join(sorted(SCHEDULES))}"
        ) from None
    return Scenario(name, factory(spec))


def chaos_config(
    policy: Optional[RetransmitPolicy] = None,
) -> KernelConfig:
    """The kernel configuration chaos cells run under.

    The adaptive policy is the chaos/soak default; the static
    paper-faithful policy stays the default everywhere else.  Delta-t's
    ``R`` is harmonized with the policy's true retry window either way
    (the §5.2.2 consistency condition).
    """
    policy = policy if policy is not None else AdaptivePolicy()
    return KernelConfig(
        retransmit=policy, deltat=deltat_for_policy(policy)
    )


#: The bus fault plan's counters a cell reports.
_BUS_FAULTS = (
    "frames_lost", "frames_corrupted", "frames_scripted_drops",
    "deliveries_predicate_dropped", "deliveries_duplicated",
    "deliveries_reordered",
)


def fault_counts(net) -> Dict[str, int]:
    """What ``net``'s fault plans injected: the bus plan's counters, and
    every node disk plan's summed as ``disk_<counter>``."""
    counts = {name: getattr(net.faults, name) for name in _BUS_FAULTS}
    for node in net.nodes.values():
        plan = getattr(getattr(node, "disk", None), "plan", None)
        if plan is not None:
            for key, value in plan.counter_snapshot().items():
                counts[f"disk_{key}"] = counts.get(f"disk_{key}", 0) + value
    return counts
