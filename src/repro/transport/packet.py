"""Packet vocabulary for the SODA kernel protocol.

A packet is one transport message; the paper's protocol leans hard on
piggybacking, so a single packet can simultaneously carry a REQUEST, data,
and an acknowledgement of the previous inbound message.  We model this
with a primary :class:`PacketType` plus an optional piggybacked ``ack``
(the alternating-bit being acknowledged) and optional data payloads.

Data is carried as real ``bytes`` so the reproduction can assert
end-to-end integrity, not just timing.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class PacketType(enum.Enum):
    """Primary role of a packet."""

    REQUEST = "request"          # REQUEST (+ optional put-direction data)
    ACCEPT = "accept"            # ACCEPT (+ optional get-direction data)
    DATA = "data"                # requester's put data pulled by an ACCEPT
    ACK = "ack"                  # pure acknowledgement
    NACK = "nack"                # negative acknowledgement (code below)
    PROBE = "probe"              # is this delivered REQUEST still alive?
    PROBE_REPLY = "probe_reply"
    CANCEL = "cancel"            # requester withdraws a delivered REQUEST
    CANCEL_REPLY = "cancel_reply"  # server's verdict (arg: 1 ok / 0 too late)
    DISCOVER_QUERY = "discover_query"    # broadcast pattern inquiry
    DISCOVER_REPLY = "discover_reply"


class NackCode(enum.Enum):
    """Why a message was negatively acknowledged."""

    BUSY = "busy"                  # server handler BUSY/CLOSED; retry later
    OVERLOAD = "overload"          # kernel shed the REQUEST before delivery
    UNADVERTISED = "unadvertised"  # pattern not advertised at the server
    CANCELLED = "cancelled"        # no such live request (completed/cancelled)
    CRASHED = "crashed"            # requester rebooted since REQUEST issued
    DEAD = "dead"                  # probed request no longer known


_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """One transport message.

    Field groups (unused fields stay None):

    * reliability: ``seq`` is the alternating bit of a sequenced message;
      ``ack`` piggybacks the acknowledgement of the peer's last sequenced
      message; ``connection_open`` mirrors the Delta-t header bit that
      prevents a stray ACK from being mistaken for a live connection's.
    * request fields: ``pattern``, ``tid``, ``arg``, ``put_size``,
      ``get_size``, plus ``data`` when put-direction data rides along.
    * accept fields: ``tid`` names the request being completed, ``arg`` is
      the ACCEPT argument, ``data`` carries get-direction data,
      ``pull_data`` asks the requester to ship put-direction data that was
      stripped from a retransmission, ``taken_put``/``taken_get`` report
      how much data moved each way.
    * nack fields: ``nack_code`` plus ``tid`` of the affected message.
    """

    ptype: PacketType
    seq: Optional[int] = None
    ack: Optional[int] = None
    connection_open: bool = True

    pattern: Optional[int] = None
    tid: Optional[int] = None
    requester_mid: Optional[int] = None
    arg: int = 0
    put_size: int = 0
    get_size: int = 0
    data: Optional[bytes] = None
    pull_data: bool = False
    taken_put: int = 0
    taken_get: int = 0
    nack_code: Optional[NackCode] = None
    nacked_seq: Optional[int] = None
    #: BUSY NACKs carry the server's retry hint: the requester must not
    #: retransmit the nacked REQUEST sooner than this (an overloaded
    #: kernel widens it to shed load; sodalint rule SODA007 asserts
    #: clients honor it).
    retry_hint_us: Optional[float] = None

    #: Transmission timestamp of this copy, stamped by the sending
    #: connection, and its echo on acknowledgements (Eifel-style): an
    #: ack answering an *older* copy than the last one transmitted
    #: exposes that retransmission as spurious.
    tx_us: Optional[float] = None
    echo_tx_us: Optional[float] = None

    #: DISCOVER support: replying kernel's MID, and an opaque echo token
    #: that lets the requester kernel match replies to queries.
    reply_mid: Optional[int] = None
    query_token: Optional[int] = None

    #: Incarnation of the sending kernel's client, carried on probe
    #: replies so the requester (and the causal analysis engine) can
    #: tell which life of the server vouched for the answer.
    epoch: Optional[int] = None

    #: Boot support: an executable image rides the data path (see
    #: repro.core.boot); the bytes in ``data`` stand in for its size.
    image: Any = None

    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        # Kept beside ``data`` (every layer a packet crosses asks), which
        # changes only here and in copy_for_retransmit; not a wire field.
        self.data_bytes = len(self.data) if self.data is not None else 0

    def copy_for_retransmit(self, include_data: bool) -> "Packet":
        """A fresh object for one more transmission of this message:
        every field as it stands — ``packet_id`` included, which is what
        makes it the *same* packet to the receiver and the checkers —
        minus the data when it already rode an earlier copy."""
        clone = Packet.__new__(Packet)
        clone.__dict__.update(self.__dict__)
        if not include_data:
            clone.data = None
            clone.data_bytes = 0
        return clone

    def wire_payload_bytes(self) -> int:
        """Bytes this packet adds beyond the fixed frame header."""
        return self.data_bytes

    def describe(self) -> str:
        parts = [self.ptype.value]
        if self.data is not None:
            parts.append(f"+{self.data_bytes}B")
        if self.ack is not None:
            parts.append(f"+ack{self.ack}")
        if self.pull_data:
            parts.append("+pull")
        if self.nack_code is not None:
            parts.append(f"({self.nack_code.value})")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<Pkt#{self.packet_id} {self.describe()} seq={self.seq} tid={self.tid}>"
