"""Dining philosophers with deadlock detection (§4.4.3).

The paper's novel solution: five philosopher processes each *own* their
right fork; a philosopher grabs the left fork (a SIGNAL to the left
neighbor's GETFORK entry, completed when the neighbor grants it) and
then its own fork, eats, and returns both.  A deadlock-detector process,
woken periodically by the timeserver, walks the ring asking each
philosopher whether it is *needful* (holds its left fork and has lent
its own); if it comes back around to the starting philosopher and the
TID of that philosopher's fork request is unchanged, every philosopher
has been needful throughout the probe and deadlock is certain (the
paper's induction argument).  The victim — chosen fairly via
LIST_OF_NICE_PHILOS — is told to GIVE_BACK its left fork, with the
guarantee that a returned fork comes back to the returner before the
successor uses it twice (the RETURN_FORK entry records the returner as
the next waiter).  A philosopher that has eaten its ``meals_target`` is
never needful again, so the ring can never deadlock again: it answers
CHECK with :data:`SATED`, and the detector stops: it arms its next
alarm only after a probe, so none is left outstanding.
"""

from __future__ import annotations

import enum
from typing import Generator, List, Optional

from repro.core.buffers import Buffer
from repro.core.client import ClientProgram
from repro.core.errors import RequestStatus
from repro.core.patterns import Pattern, make_well_known_pattern
from repro.core.signatures import RequesterSignature, ServerSignature
from repro.facilities.timeservice import ALARM_CLOCK, set_alarm

GETFORK: Pattern = make_well_known_pattern(0o430)
PUTFORK: Pattern = make_well_known_pattern(0o431)
RETURN_FORK: Pattern = make_well_known_pattern(0o432)
CHECK: Pattern = make_well_known_pattern(0o433)
GIVE_BACK: Pattern = make_well_known_pattern(0o434)

#: The CHECK accept argument of a philosopher that has eaten its fill
#: (REJECT's -1 means "not needful now").
SATED = 1

#: How long a philosopher backs off when its own fork is lent out.
BACKOFF_US = 100.0


class ForkState(enum.Enum):
    MINE = "mine"
    HIS = "his"
    IDLE = "idle"


class Philosopher(ClientProgram):
    """One philosopher; owns the fork shared with its right neighbor."""

    def __init__(
        self,
        left_mid: int,
        think_us: float = 2_000.0,
        eat_us: float = 2_000.0,
        meals_target: Optional[int] = None,
        grab_own_first: bool = False,
    ) -> None:
        self.left_mid = left_mid
        self.think_us = think_us
        self.eat_us = eat_us
        self.meals_target = meals_target
        #: The textbook *wrong* acquisition order: claim our own fork
        #: before requesting the neighbor's.  With every philosopher
        #: doing this simultaneously the ring deadlocks by hold-and-wait
        #: (each holds its own fork, each waits on its left neighbor) —
        #: the failure §4.4.3's grab-left-first protocol exists to
        #: avoid.  Used by the ``philosophers_noarb`` causal workload to
        #: seed a wait-for cycle for SODA013.
        self.grab_own_first = grab_own_first
        self.meals = 0
        self.give_backs = 0

    # -- state ------------------------------------------------------------
    # he_owns: the left fork (owned by the left neighbor).
    # i_own:   our own (right) fork.

    def initialization(self, api, parent_mid):
        self.he_owns = ForkState.IDLE
        self.i_own = ForkState.IDLE
        self.myrequest: Optional[int] = None  # TID of the hunger episode
        self.hisrequest: Optional[RequesterSignature] = None
        for pattern in (GETFORK, PUTFORK, RETURN_FORK, CHECK, GIVE_BACK):
            yield from api.advertise(pattern)

    def _left(self, pattern: Pattern) -> ServerSignature:
        return ServerSignature(self.left_mid, pattern)

    def grab_my_fork(self, api) -> Generator:
        """Atomically claim our own fork if it is not lent out."""
        yield from api.close()
        if self.i_own is ForkState.HIS:
            result = False
        else:
            result = True
            self.i_own = ForkState.MINE
        yield from api.open()
        return result

    def task(self, api):
        while self.meals_target is None or self.meals < self.meals_target:
            yield api.compute(self.think_us)
            if self.grab_own_first:
                # Hold-and-wait order: claim our own fork locally, then
                # block on the neighbor's.  Symmetric rings deadlock.
                while True:
                    got = yield from self.grab_my_fork(api)
                    if got:
                        break
                    yield api.compute(BACKOFF_US)
                    yield from api.poll(
                        lambda: self.i_own is not ForkState.HIS
                    )
                self.myrequest = yield from api.signal(self._left(GETFORK))
                yield from api.poll(lambda: self.he_owns is ForkState.MINE)
            else:
                # Ask the left neighbor for its fork (non-blocking
                # SIGNAL; completion means the fork was granted).
                self.myrequest = yield from api.signal(self._left(GETFORK))
                yield from api.poll(lambda: self.he_owns is ForkState.MINE)
                while True:
                    got = yield from self.grab_my_fork(api)
                    if got and self.he_owns is ForkState.MINE:
                        break
                    # We may have been told to give the left fork back;
                    # wait until it returns (§4.4.3's retest).
                    if not got:
                        yield api.compute(BACKOFF_US)
                    yield from api.poll(
                        lambda: self.he_owns is ForkState.MINE
                    )
            yield api.compute(self.eat_us)
            self.meals += 1
            completion = yield from api.b_signal(self._left(PUTFORK))
            assert completion.status is RequestStatus.COMPLETED
            self.i_own = ForkState.IDLE
            self.he_owns = ForkState.IDLE
            self.myrequest = None
            if self.hisrequest is not None:
                self.i_own = ForkState.HIS
                asker, self.hisrequest = self.hisrequest, None
                yield from api.accept_signal(asker)
        yield from api.serve_forever()

    def handler(self, api, event):
        if event.is_completion:
            if event.asker is not None and event.asker.tid == self.myrequest:
                # Our GETFORK (or RETURN_FORK round trip) was granted.
                self.he_owns = ForkState.MINE
            return
        if not event.is_arrival:
            return
        if event.pattern == PUTFORK:
            yield from api.accept_current_signal()
            self.i_own = ForkState.IDLE
        elif event.pattern == GETFORK:
            if self.i_own is ForkState.MINE:
                self.hisrequest = event.asker  # grant when done eating
            else:
                self.i_own = ForkState.HIS
                yield from api.accept_current_signal()
        elif event.pattern == CHECK:
            if self.meals_target is not None and self.meals >= self.meals_target:
                yield from api.accept_current_signal(SATED)
            elif (
                self.he_owns is ForkState.MINE
                and self.i_own is ForkState.HIS
                and self.myrequest is not None
            ):
                # Needful: report the TID of this hunger episode.
                yield from api.accept_current_get(
                    put=self.myrequest.to_bytes(8, "big")
                )
            else:
                yield from api.reject()
        elif event.pattern == GIVE_BACK:
            yield from api.accept_current_signal()
            if not (
                self.he_owns is ForkState.MINE
                and self.i_own is ForkState.HIS
                and self.myrequest is not None
            ):
                # The deadlock already resolved itself between the
                # detector's probe and this signal; nothing to give back.
                return
            self.give_backs += 1
            # Return the left fork; the completion of this RETURN_FORK
            # request re-grants the fork to us with priority.
            self.myrequest = yield from api.signal(self._left(RETURN_FORK))
            self.he_owns = ForkState.HIS
        elif event.pattern == RETURN_FORK:
            # Our lent fork is coming home; the returner becomes the
            # recorded next waiter, guaranteeing it priority.
            self.i_own = ForkState.MINE
            self.hisrequest = event.asker
            # Grant it back immediately if we are not hungry ourselves
            # (we reclaimed the fork only to break the cycle).
            if self.myrequest is None:
                self.i_own = ForkState.HIS
                asker, self.hisrequest = self.hisrequest, None
                yield from api.accept_signal(asker)


class DeadlockDetector(ClientProgram):
    """Periodically probes the ring; breaks certain deadlocks (§4.4.3).

    Stops, with no alarm outstanding, once a CHECK finds a philosopher
    :data:`SATED`; a table without a ``meals_target`` is probed forever.
    """

    def __init__(
        self,
        philosopher_mids: List[int],
        interval_ms: int = 20,
    ) -> None:
        self.phil = list(philosopher_mids)
        self.interval_ms = interval_ms
        self.deadlocks_broken = 0
        self.probes = 0
        self.stopped = False

    def initialization(self, api, parent_mid):
        self.times_up = False
        self.sated_seen = False
        self.alarm_tid = None
        rng = api.sim.rng.stream("deadlock-detector")
        self._rng = rng
        self.possible_victims = list(range(len(self.phil)))
        self.next_victim = self._pick_victim()
        return
        yield  # pragma: no cover

    def _pick_victim(self) -> int:
        victim = self._rng.choice(self.possible_victims)
        self.possible_victims.remove(victim)
        if not self.possible_victims:
            self.possible_victims = list(range(len(self.phil)))
        return victim

    def handler(self, api, event):
        if event.is_completion and event.asker is not None:
            if event.asker.tid == self.alarm_tid:
                self.times_up = True
        return
        yield  # pragma: no cover

    def _check(self, api, index: int) -> Generator:
        """Ask philosopher ``index`` if it is needful; returns its episode
        TID or None (and notes a :data:`SATED` answer)."""
        buf = Buffer(8)
        completion = yield from api.b_get(
            ServerSignature(self.phil[index], CHECK), get=buf
        )
        if completion.status is not RequestStatus.COMPLETED or len(buf.data) < 8:
            self.sated_seen |= completion.arg == SATED
            return None
        return int.from_bytes(buf.data, "big")

    def task(self, api):
        timeserver = yield from api.discover(ALARM_CLOCK)
        # The next alarm is armed after the probe, so the period is the
        # interval however long a probe takes.  A sated philosopher is
        # never needful again, so no ring of needful philosophers can
        # form: once one is seen the detector stops, no alarm pending.
        while not self.sated_seen:
            self.alarm_tid = yield from set_alarm(api, timeserver, self.interval_ms)
            yield from api.poll(lambda: self.times_up)
            self.times_up = False
            self.probes += 1
            first_tid = yield from self._check(api, self.next_victim)
            if first_tid is None:
                continue
            # Walk the ring of successors.
            current = self.next_victim
            broken = True
            while True:
                current = (current + 1) % len(self.phil)
                if current == self.next_victim:
                    break
                tid = yield from self._check(api, current)
                if tid is None:
                    broken = False
                    break
            if not broken:
                continue
            again = yield from self._check(api, self.next_victim)
            if again != first_tid:
                continue
            # Deadlock is certain: every philosopher stayed needful.
            self.deadlocks_broken += 1
            victim = self.next_victim
            self.next_victim = self._pick_victim()
            yield from api.b_signal(ServerSignature(self.phil[victim], GIVE_BACK))
        self.stopped = True
        yield from api.serve_forever()
