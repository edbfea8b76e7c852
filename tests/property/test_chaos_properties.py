"""Property-based chaos tests: at-most-once delivery under loss.

The chaos sweep (repro.chaos) explores a handful of curated fault
schedules; these properties explore the loss-probability axis randomly.
For any seed and any loss rate up to 0.2, a PUT / GET / EXCHANGE
workload must *terminate* (every request reaches a verdict, nothing
stays wedged) and the server must ACCEPT each transaction *at most
once* — a retransmitted REQUEST must never be re-delivered to the
handler (§3.3, Delta-t duplicate detection).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.liveness import check_liveness
from repro.core import Buffer, ClientProgram, Network
from repro.core.patterns import make_well_known_pattern
from repro.net.errors import FaultPlan

PATTERN = make_well_known_pattern(0o201)


class _AllVerbServer(ClientProgram):
    """Accepts every arrival, whatever the verb shape."""

    def __init__(self):
        self.accepted = 0

    def initialization(self, api, parent_mid):
        yield from api.advertise(PATTERN)

    def handler(self, api, event):
        if not event.is_arrival:
            return
        self.accepted += 1
        reply = b"r" * min(event.get_size, 8) if event.get_size else None
        if event.put_size:
            buf = Buffer(event.put_size)
            yield from api.accept_current_exchange(get=buf, put=reply)
        else:
            yield from api.accept_current(put=reply)


class _VerbClient(ClientProgram):
    """One PUT, one GET, one EXCHANGE; records every verdict."""

    def __init__(self):
        self.statuses = []

    def task(self, api):
        server = api.server_sig(0, PATTERN)
        for verb in ("put", "get", "exchange"):
            reply = Buffer(16)
            if verb == "put":
                completion = yield from api.b_put(server, put=b"payload")
            elif verb == "get":
                completion = yield from api.b_get(server, get=reply)
            else:
                completion = yield from api.b_exchange(
                    server, put=b"ping", get=reply
                )
            self.statuses.append(completion.status)
        yield from api.serve_forever()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss=st.floats(min_value=0.0, max_value=0.2),
)
def test_verbs_terminate_with_at_most_once_delivery(seed, loss):
    net = Network(seed=seed, faults=FaultPlan(loss_probability=loss))
    server = _AllVerbServer()
    client = _VerbClient()
    net.add_node(program=server)
    net.add_node(program=client, boot_at_us=50.0)
    net.run(until=120_000_000.0)

    # Termination: every request reached a verdict (COMPLETED or a
    # failure — either is a terminal answer) ...
    assert len(client.statuses) == 3
    # ... and nothing is left wedged or leaking at the horizon.
    problems = check_liveness(net)
    assert problems == [], "\n".join(problems)

    # At-most-once: the server never ACCEPTed the same transaction
    # twice, no matter how many times loss forced a REQUEST retransmit.
    accepts = [
        r for r in net.sim.trace.records if r.category == "kernel.accept"
    ]
    keys = [(r["mid"], r["src"], r["tid"]) for r in accepts]
    assert len(keys) == len(set(keys)), f"duplicate ACCEPT: {sorted(keys)}"
    assert server.accepted == len(accepts)
