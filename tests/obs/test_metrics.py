"""Unit tests for repro.obs.metrics and CostLedger edge cases."""

import pytest

from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    Histogram,
    MetricsRegistry,
)
from repro.sim.tracing import CostLedger


class TestHistogram:
    def test_empty_histogram_reports_none(self):
        hist = Histogram("empty")
        assert hist.count == 0
        assert hist.mean is None
        assert hist.min is None
        assert hist.max is None
        assert hist.quantile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["p99"] is None

    def test_single_sample_is_every_quantile(self):
        hist = Histogram("one")
        hist.observe(42.0)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert hist.quantile(q) == 42.0
        assert hist.mean == 42.0
        assert hist.min == hist.max == 42.0

    def test_tied_samples(self):
        hist = Histogram("ties")
        for value in (5.0, 5.0, 5.0, 5.0, 9.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 5.0
        assert hist.quantile(0.8) == 5.0
        assert hist.quantile(0.81) == 9.0
        assert hist.max == 9.0

    def test_nearest_rank_definition(self):
        hist = Histogram("ranks")
        for value in range(1, 11):  # 1..10
            hist.observe(float(value))
        assert hist.quantile(0.5) == 5.0
        assert hist.quantile(0.90) == 9.0
        assert hist.quantile(0.99) == 10.0
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 10.0

    def test_quantile_out_of_range(self):
        hist = Histogram("bad")
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_observation_after_quantile_invalidates_cache(self):
        hist = Histogram("cache")
        hist.observe(10.0)
        assert hist.quantile(1.0) == 10.0
        hist.observe(20.0)
        assert hist.quantile(1.0) == 20.0


class TestRegistry:
    def test_get_or_create_and_type_conflict(self):
        reg = MetricsRegistry()
        counter = reg.counter("x")
        assert reg.counter("x") is counter
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_counter_rejects_negative(self):
        counter = CounterMetric("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        gauge = GaugeMetric("g")
        gauge.set(3.0)
        gauge.add(1.5)
        assert gauge.value == 4.5

    def test_snapshot_is_sorted_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("zeta").inc(3)
            reg.gauge("alpha").set(1.25)
            hist = reg.histogram("mid")
            for value in (4.0, 2.0, 8.0):
                hist.observe(value)
            return reg.snapshot()

        first, second = build(), build()
        assert first == second
        assert list(first) == sorted(first)

    def test_install_replaces_by_name(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        fresh = Histogram("h")
        fresh.observe(2.0)
        reg.install(fresh)
        assert reg.get("h") is fresh
        assert reg.get("h").count == 1


class TestCostLedger:
    def test_snapshot_of_empty_ledger(self):
        ledger = CostLedger()
        assert ledger.snapshot() == {}
        assert ledger.total() == 0.0

    def test_diff_against_empty_snapshot(self):
        ledger = CostLedger()
        before = ledger.snapshot()
        ledger.charge("protocol", 100.0)
        assert ledger.diff(before) == {"protocol": 100.0}

    def test_diff_skips_unchanged_categories(self):
        ledger = CostLedger()
        ledger.charge("protocol", 100.0)
        ledger.charge("transmission", 40.0)
        before = ledger.snapshot()
        ledger.charge("protocol", 7.0)
        assert ledger.diff(before) == {"protocol": 7.0}

    def test_snapshot_is_a_copy(self):
        ledger = CostLedger()
        ledger.charge("protocol", 10.0)
        snap = ledger.snapshot()
        ledger.charge("protocol", 5.0)
        assert snap == {"protocol": 10.0}

    def test_zero_charge_keeps_diff_empty(self):
        ledger = CostLedger()
        before = ledger.snapshot()
        ledger.charge("protocol", 0.0)
        assert ledger.diff(before) == {}

    def test_negative_charge_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.charge("protocol", -1.0)


class TestHubFaultAndTransportMetrics:
    """The hub exports fault-plan accounting and per-message ACK-attempt
    histograms (fed by the chaos sweep, useful everywhere)."""

    def _report(self, loss=0.0):
        from repro.workloads import build_workload
        from repro.net.errors import FaultPlan
        from repro.obs.instrument import MetricsHub

        faults = FaultPlan(loss_probability=loss) if loss else None
        built = build_workload("echo", faults=faults)
        hub = MetricsHub().install(built.net)
        built.run()
        return hub.report()

    def test_fault_counters_surface_as_gauges(self):
        snap = self._report(loss=0.15).snapshot
        for name in (
            "faults.frames_lost",
            "faults.frames_corrupted",
            "faults.frames_scripted_drops",
            "faults.deliveries_predicate_dropped",
        ):
            assert snap[name]["type"] == "gauge", name
        assert snap["faults.frames_lost"]["value"] > 0
        assert snap["faults.frames_corrupted"]["value"] == 0

    def test_fault_gauges_zero_on_clean_run(self):
        snap = self._report().snapshot
        assert snap["faults.frames_lost"]["value"] == 0
        assert snap["faults.frames_scripted_drops"]["value"] == 0

    def test_attempts_to_ack_histogram(self):
        snap = self._report().snapshot
        hist = snap["transport.attempts_to_ack"]
        assert hist["type"] == "histogram"
        assert hist["count"] > 0
        # A clean bus ACKs everything on the first transmission.
        assert hist["min"] == 1 and hist["max"] == 1

    def test_attempts_to_ack_counts_retransmissions(self):
        snap = self._report(loss=0.15).snapshot
        hist = snap["transport.attempts_to_ack"]
        assert hist["count"] > 0
        # With 15% loss some message needed more than one transmission.
        assert hist["max"] > 1
        # Per-kind breakdown accompanies the aggregate.
        assert any(
            name.startswith("transport.attempts_to_ack.") for name in snap
        )
