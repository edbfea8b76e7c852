"""Fault injection for the bus.

The paper assumes the kernel "can detect errors due to transient
subnetwork problems such as packet collisions or noise-induced errors and
that a packet retransmitted enough times will eventually arrive
undamaged" (§3.3).  A :class:`FaultPlan` injects exactly those transient
faults: probabilistic loss, probabilistic CRC corruption (discarded at the
receiver, indistinguishable from loss to the protocol), plus deterministic
hooks used by tests to script specific scenarios (e.g. the Delta-t figure
and the chaos harness).

Scripted drops (:meth:`FaultPlan.drop_next` and
:meth:`FaultPlan.drop_matching`) operate **per frame**: one broadcast
frame on an N-node bus is one scripted event, consumes one unit of
budget, and is dropped for every receiver.  Probabilistic loss and
corruption are intentionally evaluated **per receiver** — on a real
broadcast bus, noise at one interface does not imply noise at another,
so a broadcast may be lost for some receivers and arrive at others;
``frames_lost``/``frames_corrupted`` therefore count *deliveries*
discarded, not wire frames.  Drop *predicates* also see each
``(frame, receiver)`` pair because partitions are inherently
receiver-specific; their counter (``deliveries_predicate_dropped``) is
likewise per delivery.

Beyond losing deliveries, a plan can *duplicate* or *reorder* them
(ISSUE 9): real datagram fabrics replay frames (link-layer retransmit
glitches, route flaps) and overtake them (multipath).  Both are
evaluated per receiver after the drop verdict: a duplicated delivery
arrives intact twice — the second copy ``duplicate_delay_us`` later —
and a reordered delivery is held back ``reorder_extra_us`` so frames
sent after it overtake it on the wire.  The protocol must shrug at
both: transaction IDs make duplicates idempotent and sequence/epoch
checks make stale arrivals harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.net.frame import Frame

#: A predicate over one delivery attempt: ``(frame, receiver_mid)``.
DropPredicate = Callable[[Frame, int], bool]

#: A predicate over one wire frame (receiver-independent).
FramePredicate = Callable[[Frame], bool]


@dataclass
class _ScriptedStrike:
    """Drop ``count`` frames matching ``predicate`` after ``skip`` matches.

    Evaluated once per wire frame (see module docstring); used by tests
    and the chaos harness for strikes like "drop the 3rd ACCEPT reply".
    """

    predicate: FramePredicate
    count: int = 1
    skip: int = 0

    @property
    def exhausted(self) -> bool:
        return self.count <= 0


class FaultPlan:
    """Decides, per frame and per receiver, whether delivery succeeds."""

    def __init__(
        self,
        loss_probability: float = 0.0,
        corruption_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        reorder_probability: float = 0.0,
        duplicate_delay_us: float = 150.0,
        reorder_extra_us: float = 400.0,
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability out of range")
        if not 0.0 <= corruption_probability <= 1.0:
            raise ValueError("corruption_probability out of range")
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability out of range")
        if not 0.0 <= reorder_probability <= 1.0:
            raise ValueError("reorder_probability out of range")
        self.loss_probability = loss_probability
        self.corruption_probability = corruption_probability
        self.duplicate_probability = duplicate_probability
        self.reorder_probability = reorder_probability
        self.duplicate_delay_us = duplicate_delay_us
        self.reorder_extra_us = reorder_extra_us
        self._drop_predicates: List[DropPredicate] = []
        self._drops_remaining = 0
        self._strikes: List[_ScriptedStrike] = []
        #: Memoized scripted verdict for the frame currently being
        #: delivered, so a broadcast consumes scripted budget once no
        #: matter how many receivers it fans out to.
        self._scripted_memo: Optional[Tuple[int, bool]] = None
        #: Deliveries discarded by probabilistic loss / corruption
        #: (per receiver; see module docstring).
        self.frames_lost = 0
        self.frames_corrupted = 0
        #: Wire frames discarded by scripted drops (per frame).
        self.frames_scripted_drops = 0
        #: Deliveries discarded by drop predicates (per receiver).
        self.deliveries_predicate_dropped = 0
        #: Deliveries that arrived twice / were held back (per receiver).
        self.deliveries_duplicated = 0
        self.deliveries_reordered = 0

    # -- deterministic scripting ------------------------------------------

    def drop_next(self, count: int = 1) -> None:
        """Silently drop the next ``count`` wire frames (all receivers)."""
        self._drops_remaining += count

    def drop_matching(
        self,
        predicate: FramePredicate,
        count: int = 1,
        skip: int = 0,
    ) -> None:
        """Drop ``count`` frames matching ``predicate``, after letting
        ``skip`` matching frames through first.

        The predicate sees the wire frame only (not the receiver); a
        matching broadcast is dropped for every receiver and consumes
        one unit of ``count``.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if skip < 0:
            raise ValueError("skip must be >= 0")
        self._strikes.append(_ScriptedStrike(predicate, count=count, skip=skip))

    def add_drop_predicate(self, predicate: DropPredicate) -> None:
        """Drop any delivery for which ``predicate(frame, receiver_mid)``.

        Predicates persist until removed; tests use them to e.g. sever one
        direction of a link or to kill all traffic from a "crashed" node.
        """
        self._drop_predicates.append(predicate)

    def remove_drop_predicate(self, predicate: DropPredicate) -> None:
        self._drop_predicates.remove(predicate)

    @property
    def scripted_drops_pending(self) -> bool:
        """Any armed drop_next budget or unexhausted strike?"""
        return self._drops_remaining > 0 or any(
            not strike.exhausted for strike in self._strikes
        )

    # -- the verdict ---------------------------------------------------------

    def _scripted_drop(self, frame: Frame) -> bool:
        """Per-frame scripted verdict, memoized on ``frame.frame_id``."""
        if self._scripted_memo is not None and (
            self._scripted_memo[0] == frame.frame_id
        ):
            return self._scripted_memo[1]
        verdict = False
        if self._drops_remaining > 0:
            self._drops_remaining -= 1
            verdict = True
        else:
            for strike in self._strikes:
                if strike.exhausted or not strike.predicate(frame):
                    continue
                if strike.skip > 0:
                    strike.skip -= 1
                    continue
                strike.count -= 1
                verdict = True
                break
        if verdict:
            self.frames_scripted_drops += 1
        self._scripted_memo = (frame.frame_id, verdict)
        return verdict

    def delivers(self, frame: Frame, receiver_mid: int, rng) -> bool:
        """True iff this frame should reach this receiver intact.

        ``rng`` is a ``random.Random`` stream owned by the bus so draws are
        reproducible and ordered.
        """
        if self._scripted_drop(frame):
            return False
        for predicate in self._drop_predicates:
            if predicate(frame, receiver_mid):
                self.deliveries_predicate_dropped += 1
                return False
        if self.loss_probability > 0.0 and rng.random() < self.loss_probability:
            self.frames_lost += 1
            return False
        if (
            self.corruption_probability > 0.0
            and rng.random() < self.corruption_probability
        ):
            # A corrupted frame fails the Megalink CRC and is discarded by
            # the receiving interface -- same observable effect as loss.
            self.frames_corrupted += 1
            return False
        return True

    def delivery_delays(self, frame: Frame, receiver_mid: int, rng):
        """Extra-delay offsets (µs) for one *surviving* delivery.

        Called only after :meth:`delivers` said yes.  ``[0.0]`` is the
        normal case; a duplicated delivery adds a second, later copy and
        a reordered delivery holds its single copy back so frames sent
        after it overtake it.  Duplication wins if both fire — a
        duplicate whose first copy is also late is indistinguishable
        from one late copy plus one duplicate, so we keep the verdicts
        disjoint and the accounting unambiguous.
        """
        if (
            self.duplicate_probability > 0.0
            and rng.random() < self.duplicate_probability
        ):
            self.deliveries_duplicated += 1
            return [0.0, self.duplicate_delay_us]
        if (
            self.reorder_probability > 0.0
            and rng.random() < self.reorder_probability
        ):
            self.deliveries_reordered += 1
            return [self.reorder_extra_us]
        return [0.0]
