"""Every named workload, for both backends.

A :class:`WorkloadSpec` is a seed, a horizon and an ordered tuple of
node *roles* (name, zero-arg program factory, boot offset, whether the
node keeps a durable disk).  Role index = MID, on either backend.
:func:`place` puts a spec's roles — all of them, or the ones at
``mids`` — on any network with the ``add_node`` surface: the simulator's
:class:`~repro.core.node.Network` or the wall-clock
:class:`~repro.netreal.node.RealNetwork`.  The backend is the caller's
choice of network; the programs are the same objects either way, which
is the paper's premise that a client program is a core image any node
can run (§3.5).

Three registries share the vocabulary:

* :data:`WORKLOADS` — the named set ``check-trace``, the chaos matrix
  and the tier-1 gates run (virtual µs);
* :data:`CAUSAL_WORKLOADS` — those plus the pathology demos only
  ``python -m repro causal`` runs;
* :data:`REAL_WORKLOADS` — ``python -m repro real`` and ``bench real``,
  whose horizons and boot offsets are *wall clock*: ``until_us=2_000_000``
  really is two seconds.

Factories must be resolvable by role index from a fresh interpreter —
each real node is its own OS process — so every program here is a
module-level class or closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.philosophers import Philosopher
from repro.core.boot import ProgramImage
from repro.core.buffers import Buffer
from repro.core.client import ClientProgram
from repro.core.config import KernelConfig
from repro.core.node import Network
from repro.core.patterns import make_well_known_pattern
from repro.durability.disk import DiskFaultPlan, FaultDisk, SimDisk
from repro.net.errors import FaultPlan
from repro.recovery.retry import RetryPolicy, retry_request
from repro.recovery.supervisor import SupervisedService, SupervisorProgram
from repro.replication import (
    KvClient,
    KvFailoverSupervisor,
    KvReplica,
    REPL_PATTERN,
)
from repro.sodal.queueing import Queue

BENCH_PATTERN = make_well_known_pattern(0o300)
ECHO_PATTERN = make_well_known_pattern(0o347)

#: Requests kept outstanding by the streaming requester (§5.5 used
#: MAXREQUESTS = 3 and notes any value > 1 behaves the same).
OUTSTANDING = 3


# ---------------------------------------------------------------------------
# the §5.5 measurement programs
# ---------------------------------------------------------------------------


class AcceptingServer(ClientProgram):
    """Accepts every arrival in the handler (the fast path)."""

    def __init__(self, reply_bytes: int = 0):
        self.reply = bytes(reply_bytes)

    def initialization(self, api, parent_mid):
        yield from api.advertise(BENCH_PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            buf = Buffer(event.put_size)
            yield from api.accept_current_exchange(
                get=buf, put=self.reply[: event.get_size]
            )


class QueuedServer(ClientProgram):
    """Enqueues signatures in the handler; the task ACCEPTs (§4.2.1)."""

    def __init__(self, reply_bytes: int = 0, queue_size: int = 16):
        self.reply = bytes(reply_bytes)
        self.queue_size = queue_size

    def initialization(self, api, parent_mid):
        self.pending = Queue(self.queue_size)
        yield from api.advertise(BENCH_PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            yield from api.enqueue(self.pending, (event.asker, event.put_size, event.get_size))

    def task(self, api):
        while True:
            yield from api.poll(lambda: not self.pending.is_empty())
            asker, put_size, get_size = yield from api.dequeue(self.pending)
            buf = Buffer(put_size)
            yield from api.accept_exchange(
                asker, get=buf, put=self.reply[:get_size]
            )


class StreamingRequester(ClientProgram):
    """Keeps OUTSTANDING requests in flight; marks each completion."""

    def __init__(self, put_bytes: int, get_bytes: int, total: int):
        self.put_bytes = put_bytes
        self.get_bytes = get_bytes
        self.total = total
        self.issued = 0
        self.marks: List[tuple] = []

    def _issue(self, api):
        self.issued += 1
        yield from api.request(
            api.server_sig(0, BENCH_PATTERN),
            put=bytes(self.put_bytes),
            get=Buffer(self.get_bytes),
        )

    def task(self, api):
        for _ in range(min(OUTSTANDING, self.total)):
            yield from self._issue(api)
        yield from api.serve_forever()

    def handler(self, api, event):
        if event.is_completion:
            self.marks.append((api.now, api.kernel.nic.bus.frames_sent))
            if self.issued < self.total:
                yield from self._issue(api)


class BlockingSignaler(ClientProgram):
    """Issues B_SIGNALs back to back, timing each call."""

    def __init__(self, total: int):
        self.total = total
        self.call_times_us: List[float] = []

    def task(self, api):
        sig = api.server_sig(0, BENCH_PATTERN)
        for _ in range(self.total):
            t0 = api.now
            yield from api.b_signal(sig)
            self.call_times_us.append(api.now - t0)
        yield from api.serve_forever()


# ---------------------------------------------------------------------------
# echo, and the programs that provoke BUSY, CANCEL and crashes around it
# ---------------------------------------------------------------------------


class EchoServer(ClientProgram):
    """Answers every exchange with ``b"pong"``."""

    def initialization(self, api, parent_mid):
        yield from api.advertise(ECHO_PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            buf = Buffer(event.put_size)
            yield from api.accept_current_exchange(get=buf, put=b"pong")


class EchoClient(ClientProgram):
    """DISCOVERs the server, then runs ``rounds`` blocking exchanges;
    ``completions`` records each one's terminal status."""

    def __init__(self, rounds: int = 4) -> None:
        self.rounds = rounds
        self.completions: List[str] = []

    @property
    def finished(self) -> bool:
        return len(self.completions) >= self.rounds

    def task(self, api):
        server = yield from api.discover(ECHO_PATTERN)
        for i in range(self.rounds):
            reply = Buffer(16)
            completion = yield from api.b_exchange(
                server, put=b"ping%d" % i, get=reply
            )
            self.completions.append(completion.status.value)
        yield from api.serve_forever()


def _echo_client(rounds: int) -> Callable[[], EchoClient]:
    return lambda: EchoClient(rounds=rounds)


class _SlowServer(ClientProgram):
    """Accepts after burning handler time; provokes BUSY NACKs."""

    def initialization(self, api, parent_mid):
        yield from api.advertise(ECHO_PATTERN)

    def handler(self, api, event):
        if event.is_arrival:
            yield api.compute(30_000.0)
            yield from api.accept_current_signal()


class _NeverAcceptServer(ClientProgram):
    """Leaves arrivals DELIVERED so the requester can CANCEL them."""

    def initialization(self, api, parent_mid):
        yield from api.advertise(ECHO_PATTERN)

    def handler(self, api, event):
        return
        yield  # pragma: no cover


class _CancellingClient(ClientProgram):
    def __init__(self) -> None:
        self.cancel_status = None

    def task(self, api):
        server = yield from api.discover(ECHO_PATTERN)
        tid = yield from api.signal(server)
        # Give the REQUEST time to be delivered, then withdraw it.
        yield api.compute(150_000.0)
        self.cancel_status = yield from api.cancel(tid)
        yield from api.serve_forever()


class _RetryClient(ClientProgram):
    """Issues a paced stream of echo ops through the safe-retry shim.

    Survives server crashes mid-stream: provably-unexecuted failures are
    re-issued against the rebooted incarnation, ambiguous ones resolve
    to MAYBE (never a silent double execution).
    """

    def __init__(self, total: int = 10, gap_us: float = 300_000.0) -> None:
        self.total = total
        self.gap_us = gap_us
        self.outcomes: List[str] = []

    def task(self, api):
        policy = RetryPolicy(max_attempts=6, deadline_us=6_000_000.0)
        for i in range(self.total):
            outcome = yield from retry_request(
                api,
                ECHO_PATTERN,
                put=b"op%d" % i,
                get=16,
                policy=policy,
            )
            self.outcomes.append(outcome.status)
            yield api.compute(self.gap_us)
        yield from api.serve_forever()


def _make_supervisor() -> SupervisorProgram:
    return SupervisorProgram(
        services=(
            SupervisedService(
                name="server",
                mid=0,
                pattern=ECHO_PATTERN,
                image=ProgramImage(
                    "echo-server", EchoServer, size_bytes=2048
                ),
            ),
        ),
    )


class _Pinger(ClientProgram):
    def __init__(self, rounds: int = 3) -> None:
        self.rounds = rounds

    def task(self, api):
        server = api.server_sig(0, ECHO_PATTERN)
        for _ in range(self.rounds):
            yield from api.b_signal(server)
        yield from api.serve_forever()


def _noarb_philosopher(index: int, count: int = 5):
    return lambda: Philosopher(
        left_mid=(index - 1) % count,
        meals_target=3,
        grab_own_first=True,
    )


# ---------------------------------------------------------------------------
# the replicated KV store
# ---------------------------------------------------------------------------

#: The replicated KV store's cluster shape (MIDs = role indexes 0..2).
KV_REPLICAS = 3
KV_QUORUM = 2


def _kv_replica(index: int, claim_primary: bool = False) -> KvReplica:
    peers = tuple(i for i in range(KV_REPLICAS) if i != index)
    return KvReplica(
        index=index,
        peer_mids=peers,
        quorum=KV_QUORUM,
        claim_primary=claim_primary,
    )


def _kv_roles(boot_gap_us: float) -> Tuple["WorkloadRole", ...]:
    """The three durable replicas, booting ``boot_gap_us`` apart.

    replica0 claims the first epoch through the vote protocol; a chaos
    Reboot of that role re-runs the claim, which is exactly the
    stale-primary-resurfacing case epoch fencing must fence.
    """
    return tuple(
        WorkloadRole(
            f"replica{i}",
            (lambda i=i: _kv_replica(i, claim_primary=(i == 0))),
            boot_at_us=boot_gap_us * i,
            durable=True,
        )
        for i in range(KV_REPLICAS)
    )


def _make_kv_supervisor() -> KvFailoverSupervisor:
    services = tuple(
        SupervisedService(
            name=f"replica{i}",
            mid=i,
            pattern=REPL_PATTERN,
            # Reboot images rejoin as backups: a node that lost its
            # memory must never boot straight back into primaryship.
            image=ProgramImage(
                f"kv-replica-{i}",
                (lambda i=i: _kv_replica(i)),
                size_bytes=2048,
            ),
        )
        for i in range(KV_REPLICAS)
    )
    return KvFailoverSupervisor(
        services=services,
        replica_mids=tuple(range(KV_REPLICAS)),
        quorum=KV_QUORUM,
    )


# ---------------------------------------------------------------------------
# specs and registries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadRole:
    """One node of a workload: MIDs are assigned in listing order."""

    name: str
    factory: Callable[[], ClientProgram]
    boot_at_us: float = 0.0
    #: Whether the node keeps a durable disk.  :func:`place` builds it
    #: fresh per placement — disks must never leak across chaos cells —
    #: from the caller's ``media``; otherwise diskless (SODA default).
    durable: bool = False


@dataclass(frozen=True)
class WorkloadSpec:
    """A reproducible workload: seed + horizon + node roles."""

    name: str
    seed: int
    until_us: float
    roles: Tuple[WorkloadRole, ...]
    #: Role names watched by an in-workload supervisor; the chaos
    #: runner's self-heal judgment (repro.recovery.convergence) applies
    #: only to these.
    supervised: Tuple[str, ...] = ()


@dataclass
class BuiltWorkload:
    """A placed-but-not-yet-run workload.

    ``net`` has one node per placed role (MID = role index) with the
    role's program installed.  The chaos harness reboots a dead node's
    client by calling its role factory again.
    """

    spec: WorkloadSpec
    net: Network

    def role_for(self, mid: int) -> WorkloadRole:
        return self.spec.roles[mid]

    def mid_of(self, role_name: str) -> int:
        for mid, role in enumerate(self.spec.roles):
            if role.name == role_name:
                return mid
        raise KeyError(
            f"workload {self.spec.name!r} has no role {role_name!r}"
        )

    def run(self) -> Network:
        self.net.run(until=self.spec.until_us)
        return self.net


def _registry(*specs: WorkloadSpec) -> Dict[str, WorkloadSpec]:
    return {spec.name: spec for spec in specs}


WORKLOADS: Dict[str, WorkloadSpec] = _registry(
    WorkloadSpec(
        "echo",
        seed=11,
        until_us=5_000_000.0,
        roles=(
            WorkloadRole("server", EchoServer),
            WorkloadRole("client", EchoClient, boot_at_us=100.0),
        ),
    ),
    WorkloadSpec(
        "stream",
        seed=12,
        until_us=60_000_000.0,
        roles=(
            WorkloadRole("server", lambda: AcceptingServer(reply_bytes=8)),
            WorkloadRole(
                "client",
                lambda: StreamingRequester(put_bytes=32, get_bytes=8, total=12),
                boot_at_us=100.0,
            ),
        ),
    ),
    WorkloadSpec(
        "queued",
        seed=13,
        until_us=60_000_000.0,
        roles=(
            WorkloadRole("server", lambda: QueuedServer(reply_bytes=0)),
            WorkloadRole(
                "client",
                lambda: StreamingRequester(put_bytes=0, get_bytes=0, total=8),
                boot_at_us=100.0,
            ),
        ),
    ),
    WorkloadSpec(
        "busy",
        seed=14,
        until_us=60_000_000.0,
        roles=(
            WorkloadRole("server", _SlowServer),
            WorkloadRole("c1", _Pinger, boot_at_us=100.0),
            WorkloadRole("c2", _Pinger, boot_at_us=150.0),
        ),
    ),
    WorkloadSpec(
        "cancel",
        seed=15,
        until_us=10_000_000.0,
        roles=(
            WorkloadRole("server", _NeverAcceptServer),
            WorkloadRole("client", _CancellingClient, boot_at_us=100.0),
        ),
    ),
    WorkloadSpec(
        "supervised",
        seed=17,
        until_us=10_000_000.0,
        roles=(
            WorkloadRole("server", EchoServer),
            WorkloadRole("supervisor", _make_supervisor, boot_at_us=50.0),
            WorkloadRole("client", _RetryClient, boot_at_us=100.0),
        ),
        supervised=("server",),
    ),
    WorkloadSpec(
        "kvstore",
        seed=18,
        until_us=20_000_000.0,
        roles=_kv_roles(20.0)
        + (WorkloadRole("client", KvClient, boot_at_us=150.0),),
    ),
    WorkloadSpec(
        "kvstore_supervised",
        seed=19,
        until_us=20_000_000.0,
        roles=_kv_roles(20.0)
        + (
            WorkloadRole("supervisor", _make_kv_supervisor, boot_at_us=60.0),
            WorkloadRole("client", KvClient, boot_at_us=150.0),
        ),
        supervised=("replica0", "replica1", "replica2"),
    ),
    WorkloadSpec(
        "signal",
        seed=16,
        until_us=60_000_000.0,
        roles=(
            # Blocking B_SIGNALs against BENCH_PATTERN — §5.5.
            WorkloadRole("server", AcceptingServer),
            WorkloadRole(
                "client", lambda: BlockingSignaler(total=6), boot_at_us=100.0
            ),
        ),
    ),
)

#: Extra workloads for ``python -m repro causal`` only.  They are *not*
#: part of ``WORKLOADS`` — the chaos matrix, check-trace and the tier-1
#: gates stay the named set above — because these exist to
#: demonstrate pathologies: ``philosophers_noarb`` runs the §4.4.3 ring
#: with the hold-and-wait acquisition order and no deadlock detector,
#: so it *must* end with a SODA013 wait-for cycle.
CAUSAL_WORKLOADS: Dict[str, WorkloadSpec] = {
    **WORKLOADS,
    **_registry(
        WorkloadSpec(
            "philosophers_noarb",
            seed=21,
            until_us=400_000.0,
            roles=tuple(
                WorkloadRole(f"phil{i}", _noarb_philosopher(i))
                for i in range(5)
            ),
        ),
    ),
}

#: Real-backend workloads (wall-clock µs).  ``pingpong`` is the
#: acceptance workload: one server + two clients = three OS processes.
#: ``burst`` is ``bench real``'s cluster on both backends.  ``kvstore``
#: runs the sim's replicas, one OS process each, 20 ms apart.
REAL_WORKLOADS: Dict[str, WorkloadSpec] = _registry(
    WorkloadSpec(
        "pingpong",
        seed=31,
        until_us=2_000_000.0,
        roles=(
            WorkloadRole("server", EchoServer),
            WorkloadRole("ping1", _echo_client(3), boot_at_us=50_000.0),
            WorkloadRole("ping2", _echo_client(3), boot_at_us=80_000.0),
        ),
    ),
    WorkloadSpec(
        "burst",
        seed=32,
        until_us=6_000_000.0,
        roles=(
            WorkloadRole("server", EchoServer),
            WorkloadRole("burst1", _echo_client(25), boot_at_us=50_000.0),
            WorkloadRole("burst2", _echo_client(25), boot_at_us=80_000.0),
        ),
    ),
    WorkloadSpec(
        "kvstore",
        seed=33,
        until_us=6_000_000.0,
        roles=_kv_roles(20_000.0)
        + (
            WorkloadRole(
                "client", lambda: KvClient(total=12), boot_at_us=250_000.0
            ),
        ),
    ),
)


def get_spec(
    name: str, registry: Dict[str, WorkloadSpec] = CAUSAL_WORKLOADS
) -> WorkloadSpec:
    try:
        return registry[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(sorted(registry))}"
        ) from None


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def place(
    net,
    spec: WorkloadSpec,
    mids: Optional[Sequence[int]] = None,
    media: Optional[Callable[[WorkloadRole], object]] = None,
) -> BuiltWorkload:
    """Put ``spec``'s roles on ``net`` (MID = role index) and return it
    built.

    ``mids`` places only those roles — a real node process places its
    one.  A ``durable`` role gets ``media(role)`` behind a
    :class:`~repro.durability.disk.FaultDisk` whose (initially quiet)
    plan is seeded by its MID, so chaos ``DiskFault`` actions have a
    dial to turn; with no ``media`` every node is diskless.
    """
    for mid, role in enumerate(spec.roles):
        if mids is not None and mid not in mids:
            continue
        node = net.add_node(
            mid=mid,
            program=role.factory(),
            name=role.name,
            boot_at_us=role.boot_at_us,
        )
        if role.durable and media is not None:
            node.disk = FaultDisk(media(role), DiskFaultPlan(seed=100 + mid))
    return BuiltWorkload(spec=spec, net=net)


def build_workload(
    name: str,
    seed: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    config: Optional[KernelConfig] = None,
    keep_trace: bool = True,
    durable: bool = True,
) -> BuiltWorkload:
    """Construct a workload's simulated network without running it.

    ``seed``/``faults``/``config`` override the spec defaults so the
    chaos harness can sweep seeds and overlay fault plans;
    ``keep_trace=False`` runs the tracer in counters-only fast mode
    (no record retention — the engine benchmark uses it to price
    tracing itself).  ``durable=False`` builds disk-bearing roles
    diskless — the pre-durability amnesia behaviour, kept reachable so
    tests can demonstrate exactly what the WAL buys.
    """
    spec = get_spec(name)
    net = Network(
        seed=spec.seed if seed is None else seed,
        faults=faults,
        config=config,
        keep_trace=keep_trace,
    )
    media = (lambda role: SimDisk(net.ledger)) if durable else None
    return place(net, spec, media=media)


def run_workload(name: str) -> Network:
    """Build and run a workload exactly as the CLI always has."""
    return build_workload(name).run()
