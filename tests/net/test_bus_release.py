"""The lazily released bus is the eager bus it replaced, instant for instant.

``BroadcastBus`` used to spend an event at the end of every transmission
(``_finish_transmission``) to clear a ``_busy`` flag, book the delivery
and start the next queued frame.  It now books the delivery when the
transmission *starts* and keeps a ``_busy_until`` stamp; only a frame
that had to wait is started by an event (DESIGN.md §12).  The eager bus
is kept here as :class:`EagerBus` — its ``net.tx`` record aside, which
nothing read — and seeded random scripts are run over both: delivery
instants and per-NIC delivery order, the bus counters at sampled
instants and at the end, the fault plan's counters and the trace must
be equal.

Hand mutations of ``net/medium.py`` this file was checked to kill:

* ``send`` starting a frame whenever ``now >= _busy_until`` without
  looking at ``_pending`` (a frame sent at the tie overtakes one that
  was already waiting);
* ``_release`` not re-arming itself while frames remain (the second of
  two waiting frames is never sent);
* the delivery booked at ``now + (tx + propagation)`` (off the eager
  bus's ``(now + tx) + propagation`` in the last place on some frames);
* an immediate start not counted as depth 1 in ``peak_queue_depth``;
* ``now > _busy_until`` for ``now >= _busy_until``.  A lone send at
  the tie is indifferent to it: the frame goes through ``_pending`` and
  a ``_release`` armed for this very instant, and starts when it would
  have (the eager bus did one or the other depending on whether its
  finish event or the sender's came off the heap first).  Two sends
  sharing the instant are not: both queue, depth 2, where the eager bus
  said 1 in either order.

One difference is recorded rather than removed:

* With frames waiting, heap order decided whether a send at the tie
  saw the head of the line already gone; the eager finish event
  took its ``seq`` when the transmission started, ``_release`` takes it
  when the first frame queues.  A sender pushed in between, for exactly
  the release instant, is therefore counted one deeper in
  ``peak_queue_depth`` than before (wire order and every instant are
  unaffected).  A script that plants a mid-flight tie with nothing
  waiting yet keeps other senders off the bus until the tie has landed
  (``Run.quiet_until``), so the scripts stay on the side where both
  buses agree;
  :func:`test_tie_sender_pushed_before_the_first_waiter_counts_one_deeper`
  pins the other side.
"""

import random

import pytest

from repro.net import BROADCAST_MID, BroadcastBus, FaultPlan, NetworkInterface
from repro.net.frame import FRAME_HEADER_BYTES
from repro.sim import Simulator

SCRIPTS = 240
END_US = 60_000.0


class EagerBus(BroadcastBus):
    """The bus as it was: one finish event per frame."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._busy = False
        self._free_at = 0.0

    def send(self, frame):
        self._pending.append(frame)
        if len(self._pending) > self.peak_queue_depth:
            self.peak_queue_depth = len(self._pending)
        if not self._busy:
            self._transmit_next()

    def _transmit_next(self):
        if not self._pending:
            self._busy = False
            return
        self._busy = True
        frame = self._pending.popleft()
        tx_time = self.serialization_us(frame)
        self.frames_sent += 1
        self.bytes_sent += frame.wire_bytes
        self.busy_time_us += tx_time
        self._free_at = self.sim.now + tx_time
        self.sim.schedule(tx_time, self._finish_transmission, frame)

    def _finish_transmission(self, frame):
        self.sim.schedule(self.propagation_us, self._deliver, frame)
        self._transmit_next()

    def free_at(self):
        return self._free_at


class LazyBus(BroadcastBus):
    """The bus under test, plus the one question a script asks of it."""

    def free_at(self):
        return self._busy_until


# ---------------------------------------------------------------------------
# scripts


def build_script(number):
    """One seeded script: the bus's parameters and a list of steps.

    A step is ``(instant, kind, *args)``; instants are random floats, so
    the only exact ties are the ones a step plants on purpose.
    """
    rng = random.Random(number)
    nodes = rng.randint(2, 5)
    script = {
        "seed": number,
        "nodes": nodes,
        "bandwidth_bps": rng.choice((1_000_000, 1_000_000, 2_500_000, 300_000)),
        "propagation_us": rng.choice((5.0, 5.0, 0.0, 12.5, 0.1)),
        "faults": None,
        "steps": [],
    }
    if rng.random() < 0.5:
        script["faults"] = dict(
            loss_probability=rng.choice((0.0, 0.1, 0.3)),
            corruption_probability=rng.choice((0.0, 0.05)),
            duplicate_probability=rng.choice((0.0, 0.2)),
            reorder_probability=rng.choice((0.0, 0.2)),
            duplicate_delay_us=rng.choice((150.0, 37.3)),
            reorder_extra_us=rng.choice((400.0, 91.7)),
        )
    senders = rng.sample(range(nodes), rng.randint(1, min(4, nodes)))
    steps = script["steps"]

    def a_send():
        src = rng.choice(senders)
        if rng.random() < 0.2:
            dst = BROADCAST_MID
        else:
            dst = rng.choice([m for m in range(nodes + 1) if m != src])
        return src, dst, rng.choice((0, 0, 1, 7, 100, 513, 2000))

    instant = 0.0
    for _ in range(rng.randint(4, 14)):
        # Long gaps let the bus fall idle; short ones pile frames up.
        instant += rng.choice((rng.uniform(0.0, 300.0), rng.uniform(0.0, 6000.0)))
        kind = rng.random()
        if kind < 0.35:
            steps.append((instant, "send", *a_send()))
        elif kind < 0.55:
            # Same instant, several interfaces.
            for _ in range(rng.randint(2, 6)):
                steps.append((instant, "send", *a_send()))
        elif kind < 0.80:
            # A send landing exactly where the wire falls free, planted
            # before the transmission it ties with has started, or after.
            steps.append((
                instant, "tie", rng.choice(("before", "after")),
                a_send(), a_send(), [a_send() for _ in range(rng.randint(0, 3))],
            ))
        elif kind < 0.90:
            steps.append((instant, rng.choice(("detach", "disable")),
                          rng.randrange(nodes), rng.uniform(50.0, 3000.0)))
        elif kind < 0.95:
            steps.append((instant, "drop_next", rng.randint(1, 2)))
        else:
            victim = rng.choice(senders)
            steps.append((instant, "sever", victim, rng.uniform(100.0, 4000.0)))
    for _ in range(rng.randint(1, 5)):
        steps.append((rng.uniform(0.0, instant + 2000.0), "sample"))
    return script


class Run:
    """One script over one bus class; what it observed."""

    def __init__(self, bus_class, script):
        self.sim = Simulator(seed=script["seed"])
        faults = FaultPlan(**script["faults"]) if script["faults"] else None
        self.bus = bus_class(
            self.sim,
            bandwidth_bps=script["bandwidth_bps"],
            propagation_us=script["propagation_us"],
            faults=faults,
        )
        self.nics = [
            NetworkInterface(self.bus, mid) for mid in range(script["nodes"])
        ]
        self.deliveries = {nic.mid: [] for nic in self.nics}
        self.everything = []
        self.samples = []
        self.labels = 0
        self.quiet_until = 0.0
        for nic in self.nics:
            nic.on_frame = self.receiver(nic.mid)
        for step in script["steps"]:
            self.sim.at(step[0], getattr(self, "do_" + step[1]), *step[2:])
        self.sim.run(until=END_US)
        self.do_sample()
        self.sim.run()
        self.do_sample()

    def receiver(self, mid):
        def on_frame(frame):
            self.deliveries[mid].append((self.sim.now, frame.payload))
            self.everything.append((self.sim.now, mid, frame.payload))
        return on_frame

    def do_send(self, src, dst, payload_bytes):
        if self.sim.now < self.quiet_until:
            return
        # Frame ids come from a process-wide counter; the label is what
        # names a frame the same way in both runs.
        self.labels += 1
        self.nics[src].send(dst, f"f{self.labels}", payload_bytes)

    def do_tie(self, when, first, tied, queued):
        bus = self.bus
        if when == "before":
            # Only a tie if the wire is idle now; otherwise just a send.
            tx_time = (
                (FRAME_HEADER_BYTES + first[2]) * 8.0 * 1_000_000.0
                / bus.bandwidth_bps
            )
            self.sim.at(self.sim.now + tx_time, self.do_send, *tied)
            self.do_send(*first)
            for send in queued:
                self.do_send(*send)
        else:
            self.do_send(*first)
            for send in queued:
                self.do_send(*send)
            self.sim.at(max(self.sim.now, bus.free_at()), self.do_send, *tied)
            if not bus.queue_depth:
                self.quiet_until = bus.free_at()

    def do_detach(self, mid, back_after_us):
        nic = self.nics[mid]
        self.bus.detach(mid)
        self.sim.schedule(back_after_us, self.bus.attach, nic)

    def do_disable(self, mid, back_after_us):
        nic = self.nics[mid]
        nic.enabled = False
        self.sim.schedule(back_after_us, setattr, nic, "enabled", True)

    def do_drop_next(self, count):
        self.bus.faults.drop_next(count)

    def do_sever(self, victim, heal_after_us):
        predicate = lambda frame, receiver: frame.src == victim  # noqa: E731
        self.bus.faults.add_drop_predicate(predicate)
        self.sim.schedule(
            heal_after_us, self.bus.faults.remove_drop_predicate, predicate
        )

    def do_sample(self):
        bus = self.bus
        self.samples.append((
            self.sim.now, bus.frames_sent, bus.bytes_sent, bus.busy_time_us,
            bus.queue_depth, bus.peak_queue_depth,
            bus.utilization(self.sim.now),
        ))

    def observed(self):
        plan = self.bus.faults
        return {
            "deliveries": self.deliveries,
            "everything": self.everything,
            "samples": self.samples,
            "nic_counters": [
                (nic.frames_sent, nic.bytes_sent,
                 nic.frames_received, nic.bytes_received)
                for nic in self.nics
            ],
            "fault_counters": (
                plan.frames_lost, plan.frames_corrupted,
                plan.frames_scripted_drops, plan.deliveries_predicate_dropped,
                plan.deliveries_duplicated, plan.deliveries_reordered,
            ),
            # net.drop / net.replay, minus the process-wide frame ids.
            "trace": [
                (rec.time, rec.category, rec["src"], rec["dst"], rec.get("kind"))
                for rec in self.sim.trace.records
            ],
            "stopped": self.sim.now,
        }


@pytest.mark.parametrize("number", range(SCRIPTS))
def test_lazy_bus_matches_eager_bus(number):
    script = build_script(number)
    eager = Run(EagerBus, script).observed()
    lazy = Run(LazyBus, script).observed()
    for key, expected in eager.items():
        assert lazy[key] == expected, key


def test_scripts_reach_the_cases_that_matter():
    """The generator is only worth its runs if frames do wait, faults do
    fire, and a send does land on the instant the wire falls free: with
    nothing waiting, ahead of the release of a waiting frame, and right
    behind it."""
    waited = deep = lost = replayed = 0
    ties = {"idle": 0, "ahead of the release": 0, "behind the release": 0}

    class Watching(LazyBus):
        freed_at = ()

        def send(self, frame):
            if self.sim.now == self._busy_until:
                ties["ahead of the release" if self._pending else "idle"] += 1
            elif self.sim.now in self.freed_at:
                ties["behind the release"] += 1
            super().send(frame)

        def _transmit(self, frame):
            self.freed_at = (*self.freed_at[-1:], self._busy_until)
            super()._transmit(frame)

    for number in range(SCRIPTS):
        run = Run(Watching, build_script(number))
        waited += run.bus.peak_queue_depth > 1
        deep += run.bus.peak_queue_depth > 2
        plan = run.bus.faults
        lost += (plan.frames_lost + plan.frames_scripted_drops
                 + plan.deliveries_predicate_dropped) > 0
        replayed += (plan.deliveries_duplicated + plan.deliveries_reordered) > 0
    assert waited >= 200 and deep >= 150
    assert lost >= 100 and replayed >= 50
    assert min(ties.values()) >= 30, ties


# ---------------------------------------------------------------------------
# directed: the two orders that did change


def quiet_bus(bus_class):
    sim = Simulator(seed=1)
    bus = bus_class(sim, propagation_us=5.0)
    nics = [NetworkInterface(bus, mid) for mid in range(3)]
    return sim, bus, nics


def test_event_planted_on_a_delivery_instant_mid_flight_runs_after_it():
    """The delivery takes its heap ``seq`` when the transmission starts,
    not when it ends: an event pushed while the frame is on the wire,
    for exactly the delivery instant, used to run before the delivery
    and now runs after it.  One pushed before the transmission started
    still runs before, as it always did."""
    order = {}
    for bus_class in (EagerBus, LazyBus):
        sim, bus, nics = quiet_bus(bus_class)
        log = order[bus_class] = []
        nics[1].on_frame = lambda frame, log=log: log.append("delivery")
        lands_at = 100.0 + FRAME_HEADER_BYTES * 8.0 + 5.0
        sim.at(lands_at, log.append, "pushed before the start")
        sim.at(100.0, nics[0].send, 1, "x")
        sim.at(150.0, sim.at, lands_at, log.append, "pushed mid-flight")
        sim.run()
        assert sim.now == lands_at
    assert order[EagerBus] == [
        "pushed before the start", "pushed mid-flight", "delivery"
    ]
    assert order[LazyBus] == [
        "pushed before the start", "delivery", "pushed mid-flight"
    ]


def test_tie_sender_pushed_before_the_first_waiter_counts_one_deeper():
    """The other recorded difference (module docstring): same wire
    order, same instants, ``peak_queue_depth`` 2 where it was 1."""
    seen = {}
    for bus_class in (EagerBus, LazyBus):
        sim, bus, nics = quiet_bus(bus_class)
        arrivals = []
        nics[2].on_frame = lambda frame, arrivals=arrivals: arrivals.append(
            (sim.now, frame.payload)
        )
        free_at = 100.0 + FRAME_HEADER_BYTES * 8.0
        sim.at(100.0, nics[0].send, 2, "on the wire")
        sim.at(120.0, sim.at, free_at, nics[1].send, 2, "tied")
        sim.at(140.0, nics[0].send, 2, "first waiter")
        sim.run()
        seen[bus_class] = (arrivals, bus.peak_queue_depth)
    assert seen[EagerBus][0] == seen[LazyBus][0]
    assert [payload for _, payload in seen[LazyBus][0]] == [
        "on the wire", "first waiter", "tied"
    ]
    assert (seen[EagerBus][1], seen[LazyBus][1]) == (1, 2)
