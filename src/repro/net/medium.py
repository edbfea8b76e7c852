"""The broadcast bus.

All nodes share one medium.  A transmission holds the bus for its
serialization time (wire bytes at the configured bandwidth); concurrent
send attempts queue FIFO — this folds the Megalink's arbitration/backoff
into a deterministic bounded wait, which is what matters for the paper's
guarantee that ACCEPT completes in bounded time (§6.10).  After
serialization plus propagation delay the frame is offered to the addressed
interface (or, for broadcasts, every other interface); the fault plan may
discard any individual delivery.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.net.errors import FaultPlan
from repro.net.frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NetworkInterface
    from repro.sim.engine import Simulator


class BroadcastBus:
    """Shared 1 Mbit/s broadcast medium (CompuNet Megalink stand-in)."""

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bps: int = 1_000_000,
        propagation_us: float = 5.0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_us = propagation_us
        self.faults = faults or FaultPlan()
        self._fault_rng = sim.rng.stream("bus.faults")
        self._interfaces: Dict[int, "NetworkInterface"] = {}
        self._pending: Deque[Frame] = deque()
        #: The wire is serializing a frame until this instant.
        self._busy_until = 0.0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.busy_time_us = 0.0
        self.peak_queue_depth = 0

    # -- topology -----------------------------------------------------------

    def attach(self, nic: "NetworkInterface") -> None:
        if nic.mid in self._interfaces:
            raise ValueError(f"MID {nic.mid} already attached")
        self._interfaces[nic.mid] = nic

    def detach(self, mid: int) -> None:
        self._interfaces.pop(mid, None)

    # -- transmission ---------------------------------------------------------

    def serialization_us(self, frame: Frame) -> float:
        """Time the frame occupies the wire."""
        return frame.wire_bytes * 8.0 * 1_000_000.0 / self.bandwidth_bps

    def send(self, frame: Frame) -> None:
        """Put a frame on the wire, or in line behind those waiting for it."""
        frame.tx_us = self.serialization_us(frame)
        pending = self._pending
        if not pending and self.sim.now >= self._busy_until:
            if not self.peak_queue_depth:
                self.peak_queue_depth = 1
            self._transmit(frame)
            return
        pending.append(frame)
        if len(pending) > self.peak_queue_depth:
            self.peak_queue_depth = len(pending)
        if len(pending) == 1:
            self.sim.at(self._busy_until, self._release)

    @property
    def queue_depth(self) -> int:
        """Frames waiting for the bus right now."""
        return len(self._pending)

    def utilization(self, now_us: float) -> float:
        """Fraction of elapsed time the bus spent serializing frames."""
        if now_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / now_us)

    def _transmit(self, frame: Frame) -> None:
        """Start serializing ``frame`` now and book its delivery.

        Nothing has to happen when the last bit leaves: the wire is
        free from ``_busy_until`` on and :meth:`send` reads that stamp.
        Only a frame that had to wait needs an event to start it
        (:meth:`_release`) — DESIGN.md §11.2.
        """
        self.frames_sent += 1
        self.bytes_sent += frame.wire_bytes
        self.busy_time_us += frame.tx_us
        self._busy_until = self.sim.now + frame.tx_us
        # (start + tx) + propagation, in that association: the instant
        # the eager bus reached in two hops, bit for bit.
        self.sim.at(self._busy_until + self.propagation_us, self._deliver, frame)

    def _release(self) -> None:
        """The wire just fell free with frames waiting: start the first."""
        pending = self._pending
        self._transmit(pending.popleft())
        if pending:
            self.sim.at(self._busy_until, self._release)

    def _deliver(self, frame: Frame) -> None:
        rng = self._fault_rng
        if frame.is_broadcast:
            receivers = [
                nic for mid, nic in sorted(self._interfaces.items())
                if mid != frame.src
            ]
        else:
            nic = self._interfaces.get(frame.dst)
            # Unicast frames addressed to an absent interface vanish: MID
            # screening happens in interface hardware (§6.12).
            receivers = [nic] if nic is not None else []
        for nic in receivers:
            if self.faults.delivers(frame, nic.mid, rng):
                delays = self.faults.delivery_delays(frame, nic.mid, rng)
                for delay in delays:
                    if delay <= 0.0:
                        nic.deliver(frame)
                    else:
                        # A duplicated or held-back copy: same intact
                        # frame, later arrival.  `schedule` keeps the
                        # NIC callable even if it detaches meanwhile
                        # (deliver() checks `enabled` itself).
                        self.sim.schedule(delay, nic.deliver, frame)
                if len(delays) != 1 or delays[0] > 0.0:
                    self.sim.trace.record(
                        self.sim.now, "net.replay",
                        frame.src, nic.mid, frame.frame_id,
                        "dup" if len(delays) > 1 else "reorder",
                    )
            else:
                self.sim.trace.record(
                    self.sim.now, "net.drop",
                    frame.src, nic.mid, frame.frame_id,
                )
