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
* **Faults.**  Real loopback never drops, so the bus's own
  :class:`~repro.net.errors.FaultPlan` is asked per delivery on the
  send path, with the bus's rule and ``net.drop`` / ``net.replay``
  records: chaos schedules drive both backends.  Coins come from a
  per-sender stream, so fault *decisions* replay deterministically even
  though timing does not.
* **Send order.**  A datagram leaves after the callback that sent it
  returns (``call_soon``), so the sender's ``kernel.tx`` is always
  stamped before any peer can stamp the matching ``kernel.rx``.
* **Decode errors.**  A datagram that fails :func:`~repro.netreal.wire.
  decode_frame` is counted and traced (``netreal.decode_error``) and
  dropped right there — the exception never crosses the NIC boundary.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.net.errors import FaultPlan
from repro.net.frame import BROADCAST_MID, Frame, sender_frame_ids
from repro.net.nic import NetworkInterface
from repro.netreal.wire import WireDecodeError, decode_frame, encode_frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.netreal.scheduler import WallClockScheduler

Address = Tuple[str, int]


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
    the stack reads (``serialization_us``, ``frames_sent``,
    ``bytes_sent``, ``busy_time_us``, ``peak_queue_depth``, ``attach``);
    the metrics hub's bus gauges are the simulated bus's.

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
        faults: Optional[FaultPlan] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.faults = faults or FaultPlan()
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
        self.mid_screened = 0
        self._closed = False

    # -- topology -----------------------------------------------------------

    def attach(self, nic: UdpNic) -> None:
        if nic.mid in self._interfaces:
            raise ValueError(f"MID {nic.mid} already attached")
        self._interfaces[nic.mid] = nic

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

    # -- transmission -------------------------------------------------------

    def send(self, frame: Frame) -> None:
        """Encode once, deliver per target under the fault plan."""
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
        # BroadcastBus._deliver's rule, with a per-sender stream: every
        # process of a run shares the master seed, so one shared stream
        # would give all senders the *same* coin sequence.
        rng = self.sim.rng.stream(f"bus.faults.{frame.src}")
        if not self.faults.delivers(frame, dst_mid, rng):
            self.sim.trace.record(
                self.sim.now, "net.drop", frame.src, dst_mid, frame.frame_id,
            )
            return
        delays = self.faults.delivery_delays(frame, dst_mid, rng)
        for delay in delays:
            if delay <= 0.0:
                self.sim.loop.call_soon(
                    self._sendto, frame.src, datagram, dst_mid
                )
            else:
                self.sim.schedule(
                    delay, self._sendto, frame.src, datagram, dst_mid
                )
        if len(delays) != 1 or delays[0] > 0.0:
            self.sim.trace.record(
                self.sim.now, "net.replay",
                frame.src, dst_mid, frame.frame_id,
                "dup" if len(delays) > 1 else "reorder",
            )

    def _sendto(self, src_mid: int, datagram: bytes, dst_mid: int) -> None:
        if self._closed:
            # A queued datagram or timer callback (retransmit,
            # replication round, delayed duplicate) racing the shutdown
            # path: the socket is gone,
            # the datagram simply never leaves — exactly like pulling a
            # real cable.
            return
        address = self.registry.get(dst_mid)
        if address is None:  # peer vanished meanwhile
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
