"""Cell-level checks on the committed ``BENCH_real.json`` snapshot.

Real-backend numbers are wall-clock and vary run to run, so — unlike
the sim-only snapshots — the committed file is *not* byte-diffable and
no value is pinned here.  Its envelope, its backend x policy grid and
its headline verdict are judged by ``bench real --check``
(tests/bench/test_registry.py runs that judgment on the committed
file); this module keeps what has no twin there: each cell's metric
keys and types, and that the recorded waits and policy knobs are the
ones the verdict was computed from.
"""

import json
import math
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).resolve().parents[2] / "BENCH_real.json"

CELL_NUMBERS = (
    "completed_exchanges",
    "spans_total",
    "latency_p50_us",
    "latency_p99_us",
    "rtt_samples",
    "rtt_p50_us",
    "rtt_p99_us",
    "rtt_mean_us",
    "retransmits",
    "recovery_wait_mean_us",
    "recovery_wait_p99_us",
    "spurious_retransmits",
    "elapsed_s",
    "goodput_exchanges_per_s",
)


@pytest.fixture(scope="module")
def payload():
    assert SNAPSHOT.exists(), "BENCH_real.json must be committed"
    return json.loads(SNAPSHOT.read_text())


def test_cell_grid_and_metric_keys(payload):
    body = payload["body"]
    assert body["loss"] == pytest.approx(0.10)
    assert body["real_drop_every"] >= 2
    for backend, cells in body["backends"].items():
        for policy, cell in cells.items():
            for key in CELL_NUMBERS:
                value = cell[key]
                label = f"{backend}/{policy}/{key}"
                assert isinstance(value, (int, float)), label
                assert math.isfinite(value), label
            # Sanity, not pinning: the sweep ran to completion.
            assert cell["completed_exchanges"] > 0
            assert cell["retransmits"] > 0  # loss was actually injected


def test_committed_verdict_shows_adaptive_win(payload):
    comparison = payload["body"]["comparison"]
    waits = comparison["recovery_wait_mean_us"]
    assert waits["adaptive"] < waits["static"]
    knobs = comparison["policy_knobs"]
    assert set(knobs) == {"static", "adaptive"}
    assert knobs["static"]["kind"] != knobs["adaptive"]["kind"]
