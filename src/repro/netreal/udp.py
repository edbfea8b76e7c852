"""Real datagrams: :class:`UdpMedium` / :class:`UdpNic`.

The pair mirrors the simulated :class:`~repro.net.medium.BroadcastBus` /
:class:`~repro.net.nic.NetworkInterface` surface exactly where the stack
touches it — ``nic.send``/``nic.deliver`` and the ``tx_us`` that
``send`` stamps on each frame — so
:class:`~repro.core.kernel.SodaKernel` runs over it unmodified.

Differences from the bus, all consequences of being real:

* **Addressing.**  There is no shared medium; a *registry* maps MID ->
  ``(host, port)``.  Unicast is one ``sendto``; broadcast is a unicast
  fan-out to every registered peer but the sender (loopback interfaces
  have no useful L2 broadcast, and the registry is the runner's source
  of truth anyway).
* **Arbitration.**  The kernel's ledger still charges the *model*
  serialization time (``Frame.tx_us``, from ``serialization_us`` at the
  1 Mbit/s Megalink figure) so sim-vs-real cost breakdowns stay
  comparable, but the OS owns actual queueing; ``busy_time_us``
  accumulates the model figure.
* **Faults.**  Real loopback never drops, so chaos-style impairment is
  a userspace shim on the send path: seeded drop/delay/reorder per
  delivery (netem's model), drawing from the scheduler's named RNG
  streams so fault *decisions* replay deterministically even though
  timing does not.
* **Decode errors.**  A datagram that fails :func:`~repro.netreal.wire.
  decode_frame` is counted and traced (``netreal.decode_error``) and
  dropped right there — the exception never crosses the NIC boundary.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.frame import BROADCAST_MID, Frame, sender_frame_ids
from repro.net.nic import NetworkInterface
from repro.netreal.wire import WireDecodeError, decode_frame, encode_frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.netreal.scheduler import WallClockScheduler

Address = Tuple[str, int]


@dataclass
class Impairments:
    """Seeded userspace link impairment (netem-style).

    Applied independently per delivery on the send path: a broadcast to
    three peers draws three loss coins.  ``delay_us`` + uniform jitter
    holds a datagram in the scheduler before the socket write; a
    reorder strike adds ``reorder_extra_us`` on top, letting a later
    send overtake this one.
    """

    loss_probability: float = 0.0
    delay_us: float = 0.0
    jitter_us: float = 0.0
    reorder_probability: float = 0.0
    reorder_extra_us: float = 2_000.0
    #: Deliver a fraction of datagrams twice, the copy this much later —
    #: the real-socket mirror of the sim's ``DuplicateWindow``.
    duplicate_probability: float = 0.0
    duplicate_delay_us: float = 2_000.0
    #: Deterministic alternative to ``loss_probability``: drop every
    #: Nth delivery per sender (0 = off).  The sim-vs-real bench uses
    #: this so both policies face the *same* loss pattern — coin-flip
    #: losses make wall-clock A/B comparisons unrepeatable.
    drop_every: int = 0

    @property
    def active(self) -> bool:
        return (
            self.loss_probability > 0.0
            or self.delay_us > 0.0
            or self.jitter_us > 0.0
            or self.reorder_probability > 0.0
            or self.duplicate_probability > 0.0
            or self.drop_every > 0
        )


class UdpNic(NetworkInterface):
    """A node's attachment point to :class:`UdpMedium`.

    Only :meth:`send` differs from the simulated interface: frame ids
    come from the per-sender namespace so ids stay unique across the OS
    processes of one run (the causal engine joins tx/rx by frame id).
    """

    def __init__(self, medium: "UdpMedium", mid: int) -> None:
        super().__init__(medium, mid)
        self._frame_ids = sender_frame_ids(mid)

    def send(self, dst: int, payload, payload_bytes: int = 0) -> Frame:
        frame = Frame(
            self.mid,
            dst,
            payload,
            payload_bytes,
            frame_id=next(self._frame_ids),
        )
        self.frames_sent += 1
        self.bytes_sent += frame.wire_bytes
        self.bus.send(frame)
        return frame


class _NicProtocol(asyncio.DatagramProtocol):
    """One datagram endpoint, bound to one local NIC."""

    def __init__(self, medium: "UdpMedium", nic: UdpNic) -> None:
        self.medium = medium
        self.nic = nic
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self.medium._on_datagram(self.nic, data)

    def error_received(self, exc) -> None:  # pragma: no cover - ICMP noise
        self.medium.socket_errors += 1


class UdpMedium:
    """All local NICs' shared view of the real network.

    Duck-types the :class:`~repro.net.medium.BroadcastBus` attributes
    the stack and the observability layer read (``serialization_us``,
    ``frames_sent``, ``bytes_sent``, ``busy_time_us``, ``utilization``,
    ``queue_depth``, ``peak_queue_depth``, ``attach``/``detach``).

    One medium serves every NIC in this process: the in-process loopback
    tests run a whole network on one event loop, the multi-process
    runner one NIC per process.  :meth:`open` (async) binds a socket
    per attached NIC; :meth:`set_registry` installs/updates the MID ->
    address map once the runner has collected everyone's port.
    """

    def __init__(
        self,
        sim: "WallClockScheduler",
        bandwidth_bps: int = 1_000_000,
        impairments: Optional[Impairments] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.impairments = impairments or Impairments()
        self.host = host
        self.registry: Dict[int, Address] = {}
        self._interfaces: Dict[int, UdpNic] = {}
        self._protocols: Dict[int, _NicProtocol] = {}
        self.frames_sent = 0
        self.bytes_sent = 0
        self.busy_time_us = 0.0
        self.peak_queue_depth = 0  # OS-owned; kept for obs compatibility
        self.datagrams_received = 0
        self.decode_errors = 0
        self.socket_errors = 0
        self.frames_impaired_lost = 0
        self.frames_delayed = 0
        self.frames_reordered = 0
        self.frames_duplicated = 0
        self.mid_screened = 0
        self._deliveries_by_sender: Dict[int, int] = {}
        self._closed = False

    # -- topology -----------------------------------------------------------

    def attach(self, nic: UdpNic) -> None:
        if nic.mid in self._interfaces:
            raise ValueError(f"MID {nic.mid} already attached")
        self._interfaces[nic.mid] = nic

    def detach(self, mid: int) -> None:
        self._interfaces.pop(mid, None)

    def interface(self, mid: int) -> Optional[UdpNic]:
        return self._interfaces.get(mid)

    @property
    def mids(self) -> List[int]:
        return sorted(self._interfaces)

    async def open(self) -> Dict[int, Address]:
        """Bind one UDP socket per attached NIC; returns mid -> address.

        Local NICs are entered into the registry immediately, so a
        single-process network is fully connected after ``open`` alone.
        """
        loop = self.sim.loop
        for mid, nic in sorted(self._interfaces.items()):
            if mid in self._protocols:
                continue
            protocol: _NicProtocol
            _, protocol = await loop.create_datagram_endpoint(
                lambda nic=nic: _NicProtocol(self, nic),
                local_addr=(self.host, 0),
            )
            self._protocols[mid] = protocol
            assert protocol.transport is not None
            self.registry[mid] = protocol.transport.get_extra_info(
                "sockname"
            )[:2]
        return {
            mid: self.registry[mid] for mid in self._protocols
        }

    def set_registry(self, registry: Dict[int, Address]) -> None:
        """Install the cross-process MID -> (host, port) map."""
        self.registry.update(
            {int(mid): (host, int(port)) for mid, (host, port) in registry.items()}
        )

    def close(self) -> None:
        self._closed = True
        for protocol in self._protocols.values():
            if protocol.transport is not None:
                protocol.transport.close()
        self._protocols.clear()

    # -- bus-compatible accounting ------------------------------------------

    def serialization_us(self, frame: Frame) -> float:
        """Model serialization time (the ledger's transmission charge)."""
        return frame.wire_bytes * 8.0 * 1_000_000.0 / self.bandwidth_bps

    @property
    def queue_depth(self) -> int:
        return 0

    def utilization(self, now_us: float) -> float:
        if now_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / now_us)

    # -- transmission -------------------------------------------------------

    def send(self, frame: Frame) -> None:
        """Encode once, deliver per target (with optional impairment)."""
        self.frames_sent += 1
        self.bytes_sent += frame.wire_bytes
        frame.tx_us = self.serialization_us(frame)
        self.busy_time_us += frame.tx_us
        self.sim.trace.record(
            self.sim.now, "net.tx",
            frame.src, frame.dst, frame.wire_bytes, frame.frame_id,
        )
        datagram = encode_frame(frame)
        if frame.is_broadcast:
            targets = [
                mid for mid in sorted(self.registry) if mid != frame.src
            ]
        else:
            # Unknown destinations vanish, like the bus's absent-MID
            # screening: real discovery works the same way.
            targets = [frame.dst] if frame.dst in self.registry else []
        for mid in targets:
            self._deliver_one(frame, datagram, mid)

    def _deliver_one(
        self, frame: Frame, datagram: bytes, dst_mid: int
    ) -> None:
        impair = self.impairments
        if impair.active:
            if impair.drop_every > 0:
                count = self._deliveries_by_sender.get(frame.src, 0) + 1
                self._deliveries_by_sender[frame.src] = count
                if count % impair.drop_every == 0:
                    self.frames_impaired_lost += 1
                    self.sim.trace.record(
                        self.sim.now, "net.drop",
                        frame.src, dst_mid, frame.frame_id,
                    )
                    return
            # Per-sender streams: in a multi-process run every process
            # shares the master seed, so a single shared stream name
            # would give all senders the *same* coin sequence.
            rng = self.sim.rng.stream(f"netreal.impair.{frame.src}")
            if rng.random() < impair.loss_probability:
                self.frames_impaired_lost += 1
                self.sim.trace.record(
                    self.sim.now, "net.drop",
                    frame.src, dst_mid, frame.frame_id,
                )
                return
            delay_us = impair.delay_us
            if impair.jitter_us > 0.0:
                delay_us += rng.uniform(0.0, impair.jitter_us)
            if (
                impair.reorder_probability > 0.0
                and rng.random() < impair.reorder_probability
            ):
                delay_us += impair.reorder_extra_us
                self.frames_reordered += 1
            if (
                impair.duplicate_probability > 0.0
                and rng.random() < impair.duplicate_probability
            ):
                # Second copy of the same datagram, later: a replayed
                # frame the receiver must treat as stale, not new work.
                self.frames_duplicated += 1
                self.sim.trace.record(
                    self.sim.now, "net.replay",
                    frame.src, dst_mid, frame.frame_id, "dup",
                )
                self.sim.schedule(
                    delay_us + impair.duplicate_delay_us,
                    self._sendto, frame.src, datagram, dst_mid,
                )
            if delay_us > 0.0:
                self.frames_delayed += 1
                self.sim.schedule(
                    delay_us, self._sendto, frame.src, datagram, dst_mid
                )
                return
        self._sendto(frame.src, datagram, dst_mid)

    def _sendto(self, src_mid: int, datagram: bytes, dst_mid: int) -> None:
        if self._closed:
            # A timer callback (retransmit, replication round, delayed
            # duplicate) racing the shutdown path: the socket is gone,
            # the datagram simply never leaves — exactly like pulling a
            # real cable.
            return
        address = self.registry.get(dst_mid)
        if address is None:  # peer vanished after a delay strike
            return
        transport = self._transport_for_send(src_mid)
        if transport is None:
            raise RuntimeError(
                "UdpMedium.send before open(): no socket is bound"
            )
        transport.sendto(datagram, address)

    def _transport_for_send(
        self, src_mid: int
    ) -> Optional[asyncio.DatagramTransport]:
        protocol = self._protocols.get(src_mid)
        if protocol is not None and protocol.transport is not None:
            return protocol.transport
        for protocol in self._protocols.values():  # pragma: no cover
            if protocol.transport is not None:
                return protocol.transport
        return None

    # -- reception ----------------------------------------------------------

    def _on_datagram(self, nic: UdpNic, data: bytes) -> None:
        self.datagrams_received += 1
        try:
            frame = decode_frame(data)
        except WireDecodeError as exc:
            self.decode_errors += 1
            self.sim.trace.record(
                self.sim.now, "netreal.decode_error",
                nic.mid, len(data), str(exc),
            )
            return
        if frame.dst not in (nic.mid, BROADCAST_MID) or frame.src == nic.mid:
            # MID screening (§6.12): sockets are per-MID so this only
            # catches confused or hostile senders.
            self.mid_screened += 1
            return
        nic.deliver(frame)
