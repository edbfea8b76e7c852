"""Soak test: everything at once on a lossy bus.

Philosophers dining, a file server logging their meals, a time server
driving the deadlock detector, and a moderated shared counter — all on
one 1 Mbit bus with 3% frame loss.  The run must stay live and every
invariant must hold.  This is the closest thing to the paper's vision of
a whole operating system built from cooperating uniprogrammed clients.

The soak keeps no trace: the invariant checker rides the tracer as a
live sink (one row set of a ``SinkTable``) and judges every record as
it is emitted, holding only open work (DESIGN.md §13).
"""

import pytest

from repro.analysis.invariants import InvariantChecker
from repro.apps.file_server import FILESERVER_PATTERN, FileServer, RemoteFile
from repro.apps.philosophers import DeadlockDetector, Philosopher
from repro.apps.readers_writers import (
    Moderator,
    rw_end_write,
    rw_start_write,
)
from repro.core import ClientProgram, KernelConfig, Network
from repro.facilities.timeservice import TimeServer
from repro.net.errors import FaultPlan
from repro.sim.tracing import SinkTable

N_PHIL = 5
MEALS = 3


@pytest.mark.slow
def test_whole_system_soak():
    net = Network(
        seed=201,
        config=KernelConfig(probe_interval_us=100_000.0),
        faults=FaultPlan(loss_probability=0.03),
        keep_trace=False,
    )
    checker = InvariantChecker(network=net)
    table = SinkTable(checker).install(net)
    philosophers = []
    for i in range(N_PHIL):
        philosopher = Philosopher(
            left_mid=(i - 1) % N_PHIL,
            think_us=3_000.0,
            eat_us=3_000.0,
            meals_target=MEALS,
        )
        philosophers.append(philosopher)
        net.add_node(mid=i, program=philosopher, boot_at_us=i * 25.0)
    net.add_node(mid=N_PHIL, program=TimeServer())
    detector = DeadlockDetector(list(range(N_PHIL)), interval_ms=15)
    net.add_node(mid=N_PHIL + 1, program=detector, boot_at_us=500.0)
    net.add_node(mid=N_PHIL + 2, program=FileServer())
    moderator_mid = N_PHIL + 3
    net.add_node(mid=moderator_mid, program=Moderator())

    shared = {"count": 0}

    class MealLogger(ClientProgram):
        """Watches the philosophers and journals their meal counts to a
        file under the moderator's write lock."""

        def __init__(self):
            self.entries = 0

        def task(self, api):
            fs = yield from api.discover(FILESERVER_PATTERN)
            logfile = yield from RemoteFile.open(api, fs.mid, "meals.log")
            last_total = -1
            while True:
                total = sum(p.meals for p in philosophers)
                if total != last_total:
                    last_total = total
                    yield from rw_start_write(api, moderator_mid)
                    shared["count"] += 1
                    yield from logfile.write(f"{total}\n".encode())
                    self.entries += 1
                    shared["count"] -= 1
                    yield from rw_end_write(api, moderator_mid)
                if total >= N_PHIL * MEALS:
                    break
                yield api.compute(25_000)
            yield from logfile.close()
            self.done = True
            yield from api.serve_forever()

    logger = MealLogger()
    net.add_node(mid=N_PHIL + 4, program=logger, boot_at_us=800.0)

    done = net.run_until(
        lambda: getattr(logger, "done", False)
        and all(p.meals >= MEALS for p in philosophers)
        and detector.stopped,
        timeout=3_000_000_000.0,
    )
    assert done, (
        [p.meals for p in philosophers],
        getattr(logger, "done", False),
        detector.stopped,
    )
    assert logger.entries >= 2
    # The journal exists and ends with the final total.
    fs = net.nodes[N_PHIL + 2].kernel.node.client.program
    content = bytes(fs.files["meals.log"]).decode().split()
    assert content[-1] == str(N_PHIL * MEALS)
    # Monotone non-decreasing totals were journaled.
    totals = [int(x) for x in content]
    assert totals == sorted(totals)
    # Judged whole and live, in state bounded by open work: 30 entries
    # at peak over the run's ~1 800 records.  The detector withdrew its
    # last alarm when it stopped, so nothing is left open.
    assert net.sim.trace.records == []
    problems = [
        v.format()
        for v in checker.finish(ledger=net.ledger, end_time=table.end_time)
    ]
    assert problems == []
    assert 0 < checker.peak_open_state <= 40
