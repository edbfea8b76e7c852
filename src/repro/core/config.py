"""Timing model and kernel configuration.

The :class:`TimingModel` is the bridge between the paper's PDP-11/23 +
Megalink testbed and our simulator.  Defaults are calibrated from the
"Breakdown of Communications Overhead" table (§5.5): a 2-packet SIGNAL
costs 7.1 ms, split as 2.0 protocol + 1.0 connection timers + 0.7
retransmit timers + 0.8 context switch + 0.4 wire + 2.2 client overhead.
Per-word data cost is ~40 µs: 16 µs of wire (2 bytes at 1 Mbit/s) plus
two 12 µs memory copies (client↔kernel buffer at each end).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.buffers import OverloadConfig
from repro.transport.deltat import DeltaTConfig
from repro.transport.retransmit import RetransmitPolicy


@dataclass(frozen=True)
class TimingModel:
    """Cost constants in microseconds; see module docstring for origin."""

    #: Message payloads are measured in PDP-11 words.
    word_bytes: int = 2

    # -- client-side costs (the table's "client overhead") ---------------
    #: TRAP entry/exit for one kernel-primitive invocation.
    trap_us: float = 550.0
    #: Descriptor-pool management (lock with CLOSE/OPEN, alloc, fill).
    descriptor_us: float = 550.0
    #: The first tick of ``SodalApi.poll`` (the paper's idle() loop).
    idle_poll_us: float = 100.0
    #: SODAL queueing constructs: one EnQueue or DeQueue (§5.5 measured
    #: 0.7 ms of queueing overhead per queued transaction, i.e. two ops).
    queue_op_us: float = 350.0
    #: SODAL blocking-request machinery (§4.1.1): saving the return PC,
    #: cleaning the stack, and restoring on completion.  Charged half at
    #: call entry and half at resumption; explains why a B_SIGNAL costs
    #: more than a SIGNAL's completion plus client overhead.
    blocking_wrapper_us: float = 1_200.0

    # -- kernel-side per-packet costs ------------------------------------
    #: Protocol processing to send one packet (compose, checksum, start).
    protocol_send_us: float = 500.0
    #: Protocol processing to receive one packet (screen, parse, dispatch).
    protocol_recv_us: float = 500.0
    #: Delta-t connection record bookkeeping, charged per packet handled.
    connection_timer_us: float = 250.0
    #: Retransmission timer arm/disarm, charged per sequenced packet sent.
    retransmit_timer_us: float = 350.0

    # -- interrupt costs ---------------------------------------------------
    #: Software interrupt into the client handler (entry or queued-entry).
    context_switch_us: float = 400.0
    #: ENDHANDLER processing.
    endhandler_us: float = 50.0

    # -- data movement ------------------------------------------------------
    #: One memory copy between client memory and a kernel buffer, per byte
    #: (12 us/word / 2 bytes).
    copy_byte_us: float = 6.0

    # -- protocol pacing ------------------------------------------------------
    #: How long a receiving kernel delays an ACK hoping to piggyback it on
    #: an imminent ACCEPT (§5.2.3 "the acknowledgement is delayed
    #: momentarily").  Must cover a handler entry plus one primitive
    #: invocation (~2 ms); this is the protocol's "A" bound in practice.
    ack_defer_us: float = 2_600.0
    #: How long the pipelined kernel holds a REQUEST that met a BUSY
    #: handler in the input buffer before giving up and BUSY-NACKing.
    #: Must cover an in-progress ACCEPT's data exchange at the maximum
    #: message size, or pipelining degrades for large transfers.
    input_buffer_hold_us: float = 40_000.0

    def __post_init__(self) -> None:
        # Derived costs are precomputed once per (frozen) model instance:
        # these sit on the kernel's per-packet and per-primitive hot
        # paths, where re-deriving them per event is measurable at
        # sim-bench scale (docs/SIM.md).
        object.__setattr__(
            self, "_client_overhead_us", self.trap_us + self.descriptor_us
        )
        object.__setattr__(
            self,
            "blocking_wrapper_half_us",
            self.blocking_wrapper_us / 2.0,
        )

    def copy_cost_us(self, nbytes: int) -> float:
        return self.copy_byte_us * nbytes

    def client_overhead_us(self) -> float:
        """Client-side cost of one primitive invocation (precomputed)."""
        return self._client_overhead_us  # type: ignore[attr-defined]

    def scaled(self, cpu_factor: float) -> "TimingModel":
        """A model whose CPU-bound costs run ``cpu_factor`` times faster.

        §5.5.1 projects a real (non-simulated) SODA processor: all
        software costs shrink; wire time does not (it scales with the
        bus, configured separately on the Network).
        """
        if cpu_factor <= 0:
            raise ValueError("cpu_factor must be positive")
        import dataclasses

        cpu_fields = (
            "trap_us",
            "descriptor_us",
            "idle_poll_us",
            "queue_op_us",
            "blocking_wrapper_us",
            "protocol_send_us",
            "protocol_recv_us",
            "connection_timer_us",
            "retransmit_timer_us",
            "context_switch_us",
            "endhandler_us",
            "copy_byte_us",
        )
        changes = {
            name: getattr(self, name) / cpu_factor for name in cpu_fields
        }
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class KernelConfig:
    """Everything configurable about a SODA kernel."""

    #: Pipelined kernels hold a REQUEST arriving at a BUSY handler in the
    #: input buffer instead of BUSY-NACKing it (§5.2.3).
    pipelined: bool = False
    #: Maximum uncompleted REQUESTs per requester (§3.3.2 rule 5).
    max_requests: int = 3
    #: Fixed maximum message size (§3.3: "zero bytes up to a fixed max").
    max_message_bytes: int = 4096
    #: True reproduces §5.4's 256-slot direct-index pattern table (second
    #: advertise with the same low byte overwrites the first); False gives
    #: the ideal exact-match semantics of §3.4.
    direct_index_patterns: bool = False
    #: Ablation knob: False stops REQUESTs from carrying put data on
    #: their first transmission (§5.2.3's optimization), forcing every
    #: PUT/EXCHANGE through the ACCEPT-time data pull.
    data_with_request: bool = True
    #: §6.17.2 extension: the kernel itself services PEEK/POKE REQUESTs
    #: on the reserved RMR pattern against client-registered memory,
    #: skipping handler invocation entirely.  CLOSE gates it (the
    #: paper's suggested synchronization), unlike other reserved
    #: patterns.
    kernel_rmr: bool = False
    #: How long a DISCOVER collects staggered replies before completing.
    discover_window_us: float = 8_000.0
    #: Stagger unit: reply delay is ``mid * discover_stagger_us`` (§5.3).
    discover_stagger_us: float = 200.0
    #: Probing of delivered-but-unaccepted REQUESTs (§3.6.2).  "If
    #: several successive probes fail, a crash is reported" — the
    #: threshold must make false positives negligible at realistic
    #: transient-loss rates (at 10% frame loss, five successive lost
    #: probe exchanges are a ~0.02% event per round).
    probe_interval_us: float = 250_000.0
    probe_failures_to_crash: int = 5

    timing: TimingModel = field(default_factory=TimingModel)
    deltat: DeltaTConfig = field(default_factory=DeltaTConfig)
    retransmit: RetransmitPolicy = field(default_factory=RetransmitPolicy)
    overload: OverloadConfig = field(default_factory=OverloadConfig)

    def __post_init__(self) -> None:
        if self.max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        if self.max_message_bytes < 0:
            raise ValueError("max_message_bytes must be >= 0")
