"""Unit tests for the benchmark harness modules themselves.

Two ids of the deleted ``benchmarks/`` suite live here:

* ``test_table_overhead_breakdown.py::test_overhead_breakdown`` (T4:
  every category within 25 % of the paper, the total within 15 %) —
  ``test_breakdown_categories_match_paper_keys``;
* ``test_figure_deltat.py::test_deltat_scenarios`` (F1: the three
  Delta-t scenarios behave as the figure says) —
  ``test_deltat_scenarios_all_ok_default_config``, which already made
  the same assertion.
"""

import pytest

from repro.bench.breakdown import BREAKDOWN_PAPER_MS, measure_signal_breakdown
from repro.bench.deltat_figure import deltat_scenarios
from repro.bench.perf_tables import (
    PAPER_PERFORMANCE_MS,
    WORD_SIZES,
    generate_performance_table,
    measure_cell,
)
from repro.bench.tables import format_table
from repro.bench.workloads import run_blocking_signals, run_stream


def test_paper_reference_tables_complete():
    for key, values in PAPER_PERFORMANCE_MS.items():
        assert len(values) == len(WORD_SIZES), key
        assert values == sorted(values), f"{key} should be monotone"


def test_run_stream_returns_sane_result():
    result = run_stream(10, 0, txns=8, warmup=2)
    assert result.txns == 8
    assert result.per_txn_ms > 0
    assert result.packets_per_txn > 0


def test_run_stream_deterministic_by_seed():
    a = run_stream(10, 0, txns=8, warmup=2, seed=9)
    b = run_stream(10, 0, txns=8, warmup=2, seed=9)
    assert a.per_txn_ms == b.per_txn_ms
    assert a.packets_per_txn == b.packets_per_txn


def test_run_blocking_signals_records_call_times():
    result = run_blocking_signals(txns=5, warmup=1)
    assert len(result.call_times_ms) == 4
    assert all(t > 0 for t in result.call_times_ms)
    assert result.per_txn_ms == pytest.approx(
        sum(result.call_times_ms) / len(result.call_times_ms)
    )


def test_queued_accept_slower_than_handler_accept():
    fast = run_blocking_signals(txns=6, warmup=2)
    queued = run_blocking_signals(queued_accept=True, txns=6, warmup=2)
    assert queued.per_txn_ms > fast.per_txn_ms


def test_measure_cell_signal_degenerate():
    ms, pkts = measure_cell("put", 0, pipelined=False)
    assert pkts == pytest.approx(2.0, abs=0.3)
    with pytest.raises(ValueError):
        measure_cell("bogus", 1, pipelined=False)


def test_generate_performance_table_row_shape():
    rows = generate_performance_table("put", False, sizes=[0, 100])
    assert [r.words for r in rows] == [0, 100]
    assert rows[0].paper_ms == 7
    assert rows[1].paper_ms == 11


def test_breakdown_categories_match_paper_keys():
    result = measure_signal_breakdown()
    assert set(result.measured_ms) == set(BREAKDOWN_PAPER_MS)
    for name, paper_ms in result.paper_ms.items():
        assert result.measured_ms[name] == pytest.approx(paper_ms, rel=0.25), name
    assert result.total_measured_ms == pytest.approx(
        result.total_paper_ms, rel=0.15
    )
    assert result.total_measured_ms == pytest.approx(
        sum(result.measured_ms.values())
    )
    assert result.elapsed_call_ms > result.total_measured_ms / 2


def test_deltat_scenarios_all_ok_default_config():
    results = deltat_scenarios()
    assert set(results) == {"take_any", "duplicate", "crash_quiet"}
    assert all(s.ok for s in results.values())
    assert all(s.events for s in results.values())


def test_format_table_alignment_and_title():
    rendered = format_table(
        ["name", "value"],
        [("x", 1.234), ("longer", 10)],
        title="Demo",
    )
    lines = rendered.splitlines()
    assert lines[0] == "Demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert "1.2" in rendered
    # All data rows align to the same width.
    assert len(lines[2]) == len(lines[3]) == len(lines[4])
