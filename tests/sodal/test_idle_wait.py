"""The idle wait is the generator loop it replaced, tick for tick.

``SodalApi.poll`` used to resolve a future on every tick and loop in the
generator; ticks are now evaluated inside the timer callback and, where
the simulator allows, without an event at all (DESIGN.md §11).  The old
loop is kept here as :func:`reference_poll`, and seeded random scripts
are run under both: the instants at which each predicate is looked at,
the instants at which each poll returns, and the trace must be equal.

``bench sim``'s ``idle_wait`` verdict (an idle poll tick costs next to
no events; part of ``tests/bench/test_sim_bench.py::
test_body_shape_and_positive_rates``) is
``test_an_idle_hour_parks_one_waiter_and_costs_no_events``.
"""

import itertools
import random

import pytest

from repro.workloads import build_workload
from repro.chaos.scenario import ClientDie, NodeCrash, chaos_config
from repro.core import ClientProgram, KernelConfig, Network
from repro.core.config import TimingModel
from repro.core.patterns import make_well_known_pattern
from repro.net import frame
from repro.sodal.api import IDLE_CAP_US
from repro.sodal.queueing import Queue
from repro.transport import packet

POLLER_PATTERN = make_well_known_pattern(0o620)
HELPER_PATTERN = make_well_known_pattern(0o621)
POLLER, REQUESTER, HELPER = 0, 1, 2
END_US = 600_000.0
SCRIPTS = 240
DRIVES = ("whole", "sliced", "run_until", "drain")


def reference_poll(api, predicate):
    """``poll`` as it was: every tick wakes the generator."""
    processor = api._processor
    delay = api.tm.idle_poll_us
    while not predicate():
        seen = processor.activity_counter
        future = api.sim.new_future()
        processor._activity_waiters.append(future)
        timer = api.sim.schedule(
            delay, lambda: None if future.resolved else future.resolve(None)
        )
        yield future
        timer.cancel()
        processor._activity_waiters.remove(future)
        if processor.activity_counter != seen:
            delay = api.tm.idle_poll_us
        else:
            delay = min(delay * 2.0, IDLE_CAP_US)


def current_poll(api, predicate):
    return api.poll(predicate)


def tick_instants(start, count, first_us):
    """The first ``count`` instants of an undisturbed poll from ``start``,
    summed the way the simulator sums them."""
    instants, instant, delay = [], start, first_us
    for _ in range(count):
        instant = instant + delay
        instants.append(instant)
        delay = min(delay * 2.0, IDLE_CAP_US)
    return instants


# ---------------------------------------------------------------------------
# the three programs of a script


class Observed(ClientProgram):
    """Polls through ``self.poll`` and logs what the predicates saw."""

    def __init__(self, poll, log):
        self.poll = poll
        self.log = log
        self.polling = 0

    def wait(self, api, label, predicate):
        """One poll: every look goes to ``log.looks``, the return to
        ``log.wakes``, and no context ever has two waiters parked."""

        def watched():
            self.log.looks.append((label, api.now))
            waiters = api._processor._activity_waiters
            assert len(waiters) <= self.polling
            return predicate()

        self.polling += 1
        try:
            yield from self.poll(api, watched)
        finally:
            self.polling -= 1
        self.log.wakes.append((label, api.now))


class Poller(Observed):
    """Node 0: a task that polls phase after phase, and a handler whose
    arrivals also detach, block, and poll on their own."""

    def __init__(self, poll, log, script, peer):
        super().__init__(poll, log)
        self.script = script
        self.peer = peer
        self.inbox = []
        self.flags = {}
        self.detach_on = set()

    def initialization(self, api, parent_mid):
        yield from api.advertise(POLLER_PATTERN)

    def handler(self, api, event):
        helper = api.server_sig(HELPER, HELPER_PATTERN)
        if not event.is_arrival:
            if event.asker.tid in self.detach_on:
                yield from api.b_signal(helper)
            return
        kind, wait_us = self.script["arrivals"][event.arg]
        yield from api.accept_current_signal()
        label = ("handler", event.arg)
        if kind == "block":
            # The saved-PC manoeuvre: the rest runs as a task-level context.
            yield from api.b_signal(helper)
        elif kind == "block_then_poll":
            yield from api.b_signal(helper)
            until = api.now + wait_us
            yield from self.wait(api, label, lambda: api.now >= until)
        elif kind == "poll_in_handler":
            until = api.now + wait_us
            yield from self.wait(api, label, lambda: api.now >= until)
        self.inbox.append(api.now)

    def task(self, api):
        sim = api.sim
        for index, (kind, value, gap_us) in enumerate(self.script["phases"]):
            label = ("task", index)
            start = api.now
            if kind == "outside":
                # ``value`` is set by an event planted before the run.
                yield from self.wait(
                    api, label, lambda: value in self.log.outside
                )
            elif kind == "clock":
                yield from self.wait(
                    api, label, lambda: api.now >= start + value
                )
            elif kind == "arrivals":
                # (Bounded, like the next one, so that every script ends
                # and a run() with no ``until`` drains.)
                want = len(self.inbox) + 1
                yield from self.wait(
                    api, label,
                    lambda: len(self.inbox) >= want
                    or api.now >= start + value,
                )
            elif kind == "peer":
                # State of another node's program.
                want = self.peer.sent + 1
                yield from self.wait(
                    api, label,
                    lambda: self.peer.sent >= want
                    or api.now >= start + value,
                )
            elif kind == "closed":
                # A completion pends while the handler is closed and is
                # taken as OPEN returns: with no gap, the next phase's
                # poll begins in a step that has just started a handler
                # — one that detaches and blocks over the paused task.
                yield from api.close()
                tid = yield from api.signal(
                    api.server_sig(HELPER, HELPER_PATTERN)
                )
                self.detach_on.add(tid)
                yield api.compute(value)
                yield from api.open()
            elif kind == "kernel":
                yield from api.signal(api.server_sig(HELPER, HELPER_PATTERN))
                yield from self.wait(
                    api, label, lambda: not api.kernel.requests
                )
            elif kind == "on_tick_planted_first":
                # Due at exactly the value-th tick, and scheduled before
                # that tick's timer is: it runs ahead of the tick.
                instant = tick_instants(start, value, api.tm.idle_poll_us)[-1]
                sim.at(instant, self.flags.__setitem__, index, True)
                self.log.planted.append(instant)
                yield from self.wait(
                    api, label, lambda: index in self.flags
                )
            elif kind == "on_tick_planted_last":
                # Same instant, but scheduled between the previous tick
                # and this one: it runs after the tick's timer.
                ticks = tick_instants(start, value, api.tm.idle_poll_us)
                before = ticks[-2] if value > 1 else start
                sim.at(
                    (before + ticks[-1]) / 2.0,
                    sim.at, ticks[-1], self.flags.__setitem__, index, True,
                )
                self.log.planted.append(ticks[-1])
                yield from self.wait(
                    api, label, lambda: index in self.flags
                )
            if gap_us is not None:
                yield api.compute(gap_us)
        yield from api.serve_forever()


class Requester(ClientProgram):
    """Node 1: SIGNALs the poller on a script."""

    def __init__(self, script):
        self.script = script
        self.sent = 0

    def task(self, api):
        poller = api.server_sig(POLLER, POLLER_PATTERN)
        for arg, (gap_us, blocking) in enumerate(self.script["sends"]):
            yield api.compute(gap_us)
            if blocking:
                yield from api.b_signal(poller, arg)
            else:
                yield from api.signal(poller, arg)
            self.sent += 1
        yield from api.serve_forever()


class Helper(Observed):
    """Node 2: accepts in the handler, or queues for a task that polls —
    a second poller whose ticks interleave with the first one's."""

    def __init__(self, poll, log, queued):
        super().__init__(poll, log)
        self.queued = queued
        self.pending = Queue(64)

    def initialization(self, api, parent_mid):
        yield from api.advertise(HELPER_PATTERN)

    def handler(self, api, event):
        if not event.is_arrival:
            return
        if self.queued:
            yield from api.enqueue(self.pending, event.asker)
        else:
            yield from api.accept_current_signal()

    def task(self, api):
        while self.queued:
            yield from self.wait(
                api, ("helper",), lambda: not self.pending.is_empty()
            )
            asker = yield from api.dequeue(self.pending)
            yield from api.accept_signal(asker)
        yield from api.serve_forever()


# ---------------------------------------------------------------------------
# scripts and drives


def make_script(seed):
    rng = random.Random(seed)
    # A script for the "drain" drive has to fall silent: no helper that
    # polls for ever.
    drains = DRIVES[seed % 4] == "drain"
    sends = [
        (rng.choice([0.0, 300.0, 4_000.0, 21_000.0, 47_000.0]),
         rng.random() < 0.7)
        for _ in range(rng.randint(2, 6))
    ]
    arrivals = [
        (rng.choice(["plain", "plain", "block", "block_then_poll",
                     "poll_in_handler"]),
         rng.choice([150.0, 2_500.0, 12_000.0, 33_000.0]))
        for _ in sends
    ]
    phases = []
    for _ in range(rng.randint(3, 7)):
        kind = rng.choice([
            "outside", "clock", "arrivals", "peer", "kernel", "closed",
            "on_tick_planted_first", "on_tick_planted_last",
        ])
        value = {
            "outside": len(phases),
            "clock": rng.choice([40.0, 700.0, 6_300.0, 25_000.0, 70_000.0]),
            "arrivals": rng.choice([9_000.0, 80_000.0]),
            "peer": rng.choice([9_000.0, 80_000.0]),
            "closed": rng.choice([2_000.0, 15_000.0]),
            "kernel": None,
        }.get(kind, rng.randint(1, 10))
        gap_us = rng.choice([None, None, 0.0, 90.0, 5_000.0])
        phases.append((kind, value, gap_us))
    return {
        "seed": seed,
        "sends": sends,
        "arrivals": arrivals,
        "phases": phases,
        "queued_helper": not drains and rng.random() < 0.6,
        # The default, or a handler that is running (and may have
        # detached) before the first 100 µs tick of a poll begun in the
        # step that started it.
        "context_switch_us": rng.choice([400.0, 400.0, 50.0]),
        # Flags set from outside the client, at arbitrary instants.
        "outside": [
            (rng.uniform(1_000.0, 0.6 * END_US), index)
            for index, phase in enumerate(phases)
            if phase[0] == "outside"
        ],
        "slices": sorted(rng.uniform(0.0, END_US) for _ in range(5)),
        "stop_at": rng.uniform(0.0, 0.5 * END_US),
    }


class Log:
    def __init__(self):
        self.looks = []
        self.wakes = []
        self.planted = []
        self.outside = set()


def run_script(monkeypatch, script, poll, drive, slice_on=None):
    """Run one script under ``poll``; returns what could be observed."""
    # Frame and packet ids are traced and come from process-wide counters.
    monkeypatch.setattr(frame, "_frame_ids", itertools.count(1))
    monkeypatch.setattr(packet, "_packet_ids", itertools.count(1))
    timing = TimingModel(context_switch_us=script["context_switch_us"])
    net = Network(seed=script["seed"], config=KernelConfig(timing=timing))
    log = Log()
    requester = Requester(script)
    net.add_node(program=Poller(poll, log, script, requester))
    net.add_node(program=requester, boot_at_us=100.0)
    net.add_node(program=Helper(poll, log, script["queued_helper"]))
    outside = sorted(script["outside"])
    stops = []
    if drive == "sliced":
        # Several run()s, one of them ending exactly on a tick instant
        # (``slice_on``), the outside events planted in between.
        for until in sorted(script["slices"] + [slice_on, END_US]):
            while outside and outside[0][0] <= until:
                instant, index = outside.pop(0)
                net.sim.at(instant, log.outside.add, index)
            net.run(until=until)
            stops.append(net.now)
    else:
        for instant, index in outside:
            net.sim.at(instant, log.outside.add, index)
        if drive == "run_until":
            # Its predicate is owed a look after every event, ticks too.
            net.run_until(lambda: net.now >= script["stop_at"], END_US)
            stops.append(net.now)
        # A run() with no ``until`` ends when the queue drains.
        net.run(until=None if drive == "drain" else END_US)
        stops.append(net.now)
    return {
        "looks": sorted(set(log.looks)),
        "wakes": log.wakes,
        "stops": stops,
        "planted": log.planted,
        "records": list(net.sim.trace.records),
        "events": net.sim.events_processed,
    }


def both_ways(monkeypatch, script, drive):
    """(reference, current) observations of one script under one drive,
    after asserting that they are the same."""
    reference = run_script(monkeypatch, script, reference_poll, "whole")
    # A look that is not a wake is a tick that found nothing.
    woke = {instant for _, instant in reference["wakes"]}
    idle_ticks = [t for _, t in reference["looks"] if t not in woke]
    slice_on = idle_ticks[len(idle_ticks) // 2]
    if drive != "whole":
        reference = run_script(
            monkeypatch, script, reference_poll, drive, slice_on
        )
    current = run_script(monkeypatch, script, current_poll, drive, slice_on)
    for observed in ("wakes", "looks", "stops", "records"):
        assert current[observed] == reference[observed], (
            script["seed"], drive, observed
        )
    assert current["events"] <= reference["events"]
    return reference, current


@pytest.mark.parametrize("chunk", range(8))
def test_scripts_wake_and_trace_exactly_as_the_generator_loop(
    chunk, monkeypatch
):
    per_chunk = SCRIPTS // 8
    saved = hit_a_tick = 0
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        reference, current = both_ways(
            monkeypatch, make_script(seed), DRIVES[seed % 4]
        )
        saved += reference["events"] - current["events"]
        looked_at = {instant for _, instant in current["looks"]}
        hit_a_tick += sum(t in looked_at for t in current["planted"])
    # The scripts do reach the cases they are there for: events planted
    # on a tick instant land on one, and ticks are saved.
    assert hit_a_tick >= per_chunk // 2
    assert saved > 0


@pytest.mark.parametrize("drive", DRIVES[:3])
def test_the_poller_is_the_context_that_called_poll(drive, monkeypatch):
    """A poll begun in the step that started a handler belongs to the
    task, not to that handler: when the handler detaches and blocks, the
    task stays paused under it and its ticks must not look."""
    script = dict(
        make_script(0),
        sends=[],
        arrivals=[],
        phases=[("closed", 15_000.0, None), ("clock", 25_000.0, None)],
        outside=[],
        context_switch_us=50.0,
    )
    reference, _ = both_ways(monkeypatch, script, drive)
    first, second = [
        instant
        for label, instant in reference["looks"]
        if label == ("task", 1)
    ][:2]
    # The clock poll's first sleep is 100 µs; the detached b_signal held
    # the task for milliseconds instead.
    assert second - first > 3_000.0


# ---------------------------------------------------------------------------
# the two bugs of the generator loop


def queued_cell(*actions):
    built = build_workload("queued", seed=1, config=chaos_config())
    for action in actions:
        action.apply(built)
    return built


def idle_ticks_pending(sim):
    return [
        event
        for event in sim.pending_events()
        if "wait_activity" in getattr(event.fn, "__qualname__", "")
    ]


def test_an_idle_hour_parks_one_waiter_and_costs_no_events():
    built = queued_cell()
    sim = built.net.sim
    server = built.net.nodes[built.mid_of("server")].client
    built.net.run(until=built.spec.until_us)
    # The 60 s cell took 12 300 events when every tick was two of them.
    assert sim.events_processed <= 300
    assert len(idle_ticks_pending(sim)) == 1
    cell = sim.events_processed
    built.net.run(until=3_600_000_000.0)
    # One parked future however long the wait, and the hour costs the
    # one event that hands the tick from the first run() to the second.
    assert len(server._activity_waiters) == 1
    assert sim.events_processed - cell == 1


@pytest.mark.parametrize("fault", [ClientDie, NodeCrash])
def test_a_killed_poller_stops_ticking(fault):
    built = queued_cell(fault(at_us=2_000_000.0, role="server"))
    sim = built.net.sim
    server = built.net.nodes[built.mid_of("server")].client
    built.net.run(until=1_999_999.0)
    assert len(idle_ticks_pending(sim)) == 1
    built.net.run(until=2_000_000.0)
    assert server.dead
    assert idle_ticks_pending(sim) == []
    assert server._activity_waiters == []
    # One more cap quantum, and then a minute in which a tick would
    # fire 6 000 times: all that runs is what was already pending (the
    # crashed kernel's recovery).
    built.net.run(until=2_000_000.0 + IDLE_CAP_US)
    settled = sim.events_processed
    pending = len(list(sim.pending_events()))
    built.net.run(until=62_000_000.0)
    assert sim.events_processed == settled + pending
