"""Link-layer frames.

A frame addresses a destination machine id (MID) or the special
``BROADCAST_MID`` recognized by every interface (§5.3).  The payload is an
opaque transport packet; the frame only needs to know how many bytes the
payload occupies on the wire to compute serialization delay.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Optional

#: Special machine identifier recognized by all Megalink interfaces.
BROADCAST_MID = -1

#: Bits below the per-sender namespace in a distributed frame id.
FRAME_ID_SENDER_SHIFT = 32

#: Link+transport header size in bytes: source/destination MIDs, CRC,
#: alternating-bit state, packet-type flags, and the SODA tag (pattern,
#: requester signature, argument, buffer sizes).  See §6.11 on why the tag
#: is deliberately short.
FRAME_HEADER_BYTES = 24

_frame_ids = itertools.count(1)


def sender_frame_ids(mid: int) -> Iterator[int]:
    """Frame ids namespaced to one sender, for multi-process backends.

    The simulator's module-global counter guarantees unique frame ids
    within one process, and the causal engine joins ``kernel.tx`` to
    ``kernel.rx`` records by that id.  When each node is its own OS
    process (repro.netreal) every process would restart the counter at
    1, so the id carries the sender's MID in the high bits instead:
    ``(mid + 1) << FRAME_ID_SENDER_SHIFT | counter``.  The ``+ 1`` keeps
    every namespaced id above the plain counter range, so a merged
    trace can even coexist with simulator-issued ids.
    """
    if mid < 0:
        raise ValueError(f"sender MIDs are non-negative: {mid}")
    base = (mid + 1) << FRAME_ID_SENDER_SHIFT
    return (base | n for n in itertools.count(1))


class Frame:
    """One link-layer transmission.

    Immutable once built, so its size on the wire and whether it is a
    broadcast are worked out here, once.  ``tx_us``, its time on the
    wire, is the medium's to know: ``send`` stamps it on taking the frame.
    """

    __slots__ = (
        "src", "dst", "payload", "payload_bytes", "frame_id",
        "wire_bytes", "is_broadcast", "tx_us",
    )

    def __init__(
        self, src: int, dst: int, payload: Any, payload_bytes: int = 0,
        frame_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.frame_id = next(_frame_ids) if frame_id is None else frame_id
        self.wire_bytes = FRAME_HEADER_BYTES + payload_bytes
        self.is_broadcast = dst == BROADCAST_MID

    def __eq__(self, other: object) -> bool:
        # Compared by value, hence (Python's rule) unhashable.
        if other.__class__ is not Frame:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in ("src", "dst", "payload", "payload_bytes", "frame_id")
        )

    def __repr__(self) -> str:
        dst = "BCAST" if self.is_broadcast else str(self.dst)
        return (
            f"<Frame #{self.frame_id} {self.src}->{dst} "
            f"{self.wire_bytes}B {self.payload!r}>"
        )
