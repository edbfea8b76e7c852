"""§5.5's MAXREQUESTS claim, verified.

"All measurements were made with MAXREQUESTS set to three ...
MAXREQUESTS values other than one produced the same results.  With
MAXREQUESTS set to one, all REQUESTS become blocking so no advantage due
to double buffering accrues."
"""

import pytest

from repro.bench.tables import format_table
from repro.bench.workloads import (
    AcceptingServer,
    StreamingRequester,
)
from repro.core.config import KernelConfig
from repro.core.node import Network

from conftest import register_result


def _measure(max_requests: int, put_words: int = 100) -> float:
    net = Network(
        seed=5,
        config=KernelConfig(max_requests=max_requests),
        keep_trace=False,
    )
    net.add_node(program=AcceptingServer())
    client = StreamingRequester(put_words * 2, 0, total=14)
    # The streaming requester primes min(OUTSTANDING, total) requests but
    # the kernel caps at max_requests; prime accordingly.
    import repro.workloads as workloads

    original = workloads.OUTSTANDING
    workloads.OUTSTANDING = max_requests
    try:
        net.add_node(program=client, boot_at_us=100.0)
        net.run(until=240_000_000.0)
    finally:
        workloads.OUTSTANDING = original
    times = [t for t, _ in client.marks]
    assert len(times) == 14
    return (times[-1] - times[5]) / (len(times) - 6) / 1000.0


def test_maxrequests_sweep(benchmark):
    def run():
        return {n: _measure(n) for n in (1, 2, 3, 5)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    register_result(
        "MAXREQUESTS sweep (§5.5 claim)",
        format_table(
            ["MAXREQUESTS", "ms per 100-word PUT"],
            sorted(results.items()),
            title="Double buffering: per-transaction latency vs. "
                  "outstanding requests",
        ),
    )
    # MAXREQUESTS=1 is measurably slower (no overlap)...
    assert results[1] > results[2] * 1.15
    # ...and every value above one performs the same (within 5%).
    assert results[2] == pytest.approx(results[3], rel=0.05)
    assert results[3] == pytest.approx(results[5], rel=0.05)
