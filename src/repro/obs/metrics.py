"""Counters, gauges, and deterministic exact-quantile histograms.

The simulation is a deterministic discrete-event system, so histograms
keep *every* sample and report exact quantiles (nearest-rank): two runs
with the same seed produce bit-identical snapshots, which is what lets
``BENCH_*.json`` files be diffed across commits.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

#: Quantiles reported by every histogram snapshot.
QUANTILES = (0.50, 0.90, 0.99)


class CounterMetric:
    """A monotonically increasing integer counter."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class GaugeMetric:
    """A point-in-time value (utilization, queue depth, ledger total)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Exact-quantile histogram over all observed samples.

    ``quantile`` uses the nearest-rank definition on the sorted sample
    list: for ``n`` samples, quantile ``q`` is the element at index
    ``ceil(q * n) - 1``.  Empty histograms report ``None`` quantiles.
    """

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        self._samples.append(float(value))
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> Optional[float]:
        if not self._samples:
            return None
        return self.sum / len(self._samples)

    @property
    def min(self) -> Optional[float]:
        return min(self._samples) if self._samples else None

    @property
    def max(self) -> Optional[float]:
        return max(self._samples) if self._samples else None

    def quantile(self, q: float) -> Optional[float]:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if not self._samples:
            return None
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        index = max(0, math.ceil(q * len(self._sorted)) - 1)
        return self._sorted[index]

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out


class MetricsRegistry:
    """A named collection of metrics with a deterministic snapshot.

    Metrics are created on first use (``counter``/``gauge``/
    ``histogram``); asking for an existing name with a different type is
    an error.  :meth:`snapshot` returns a plain dict keyed by metric
    name in sorted order, suitable for JSON export and equality
    comparison across runs.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get_or_create(name, CounterMetric)

    def gauge(self, name: str) -> GaugeMetric:
        return self._get_or_create(name, GaugeMetric)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def get(self, name: str):
        return self._metrics.get(name)

    def install(self, metric) -> None:
        """Insert (or replace) a fully built metric under its own name."""
        self._metrics[metric.name] = metric

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }
