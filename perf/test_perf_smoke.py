"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Not on tier-1's ``testpaths``, so tier-1 wall time is untouched.  It
guards the things a later edit could silently break: the contract file
drifting from the catalogue, a metric going missing, the simulated
results not repeating, and the staged copy of the cell pipeline drifting
from ``run_cell``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog
import run as perf_run
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMALL = 0.2  # --seconds: a fiftieth of the real size


def test_benchmark_json_is_the_catalogue():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_json()


def test_catalogue_fits_the_contract():
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    names += [name for name, _ in catalog.WORKLOADS]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    assert all(0 < m.bound <= 0.25 for m in catalog.END_TO_END)
    assert any(
        m.name == "setup_s" and m.unit == "s" and m.better == "lower"
        for m in catalog.END_TO_END
    )
    assert 2 <= len(catalog.WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why
               for _, why in catalog.WORKLOADS)
    assert len(catalog.PER_LAYER) <= 128
    assert sorted(catalog.LEDGER) == sorted(workloads.soda.CostLedger.CATEGORIES)


@pytest.mark.parametrize("workload", [name for name, _ in catalog.WORKLOADS])
def test_small_run_emits_every_metric_and_repeats(workload):
    untraced = perf_run.measure(workload, seed=3, seconds=SMALL, trace=False)
    traced = perf_run.measure(workload, seed=3, seconds=SMALL, trace=True)
    assert untraced["correct"] and traced["correct"]
    assert untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert set(untraced["metrics"]) == {m.name for m in catalog.END_TO_END}
    assert set(traced["metrics"]) == {m.name for m in catalog.PER_LAYER}
    # Two runs, one digest: the simulated results repeat exactly.
    assert untraced["virt_digest"] == traced["virt_digest"]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    shares = sum(
        traced["metrics"][f"{pkg}.self_share"]["value"]
        for pkg in catalog.PACKAGES
    )
    assert shares == pytest.approx(1.0, abs=0.01)
    spans = json.loads((ROOT / traced["spans_file"]).read_text())
    assert spans["workload"] == workload and spans["spans"]


@pytest.mark.parametrize("cell", [
    ("echo", "lossy", 3),
    ("supervised", "crash_load", 2),
    ("queued", "thundering_herd", 5),
    ("kvstore_supervised", "torn_write_primary", 1),
])
def test_staged_cell_is_run_cell(cell):
    outcome = workloads.Outcome()
    staged = workloads.staged_cell(*cell, workloads.Recorder(), outcome)
    assert staged == workloads.soda.run_cell(*cell).to_dict()
    assert outcome.counters["sim.events"] > 0


def test_different_seeds_give_different_inputs():
    assert (workloads.cell_sweep_inputs(1, 1.0)
            != workloads.cell_sweep_inputs(2, 1.0))
    assert (workloads.cell_sweep_inputs(1, 1.0)
            == workloads.cell_sweep_inputs(1, 1.0))
    # Nothing is left out of the sweep, the known-unclean pairs included.
    assert {
        (w, s) for w, s, _ in workloads.cell_sweep_inputs(1, 10.0)["cells"]
    } == {
        (w, s) for w in workloads.CELL_WORKLOADS
        for s in workloads.soda.SCHEDULES
    }
    assert {
        s for _, s, _ in workloads.kv_faults_inputs(1, 10.0)["cells"]
    } == set(workloads.KV_FAULT_SCHEDULES)


def test_expected_failures_are_counted_but_only_those():
    """The cells known to be unclean at the seed commit and the KV
    operation ``partition_heal`` refuses by design are counted and
    listed, not ``failed``; anything else that goes wrong is."""
    cells = [("cancel", "lossy", 5), ("echo", "lossy", 3)]
    outcome = workloads.cell_sweep_run({"cells": cells}, workloads.Recorder(),
                                       False)
    assert (outcome.ops, outcome.failed, outcome.expected_failed) == (2, 0, 1)
    assert outcome.unclean == ["cancel/lossy/5"]
    assert outcome.counters["chaos.cells_unclean"] == 1

    # The same verdict from a pair not known for it is a failure.
    assert ("cancel", "lossy") in workloads.KNOWN_UNCLEAN
    assert ("echo", "lossy") not in workloads.KNOWN_UNCLEAN

    heal = [(workloads.KV_CLUSTER, "partition_heal", 1)]
    outcome = workloads.kv_faults_run({"cells": heal}, workloads.Recorder(),
                                      False)
    assert (outcome.ops, outcome.failed, outcome.expected_failed) == (30, 0, 1)
    assert outcome.unclean == []


def _results(wall_s: float, digest: str = "d" * 64) -> dict:
    metrics = {
        "wall_s": {"median": wall_s}, "setup_s": {"median": 0.3},
        "peak_rss_mb": {"median": 40.0}, "sim.events": {"median": 1000},
        "sim.self_s": {"median": wall_s / 3},
    }
    return {"workloads": {
        name: {"virt_digest": digest, "correct": True, "failed": 0,
               "metrics": metrics}
        for name, _ in catalog.WORKLOADS
    }}


def test_compare_judges_bounds_and_exactness(tmp_path, capsys):
    bound = catalog.by_name()["wall_s"].bound
    paths = {}
    for key, body in {
        "base": _results(10.0),
        "noise": _results(10.0 * (1 + bound / 2)),
        "slow": _results(10.0 * (1 + bound * 2)),
        "fast": _results(5.0),
        "changed": _results(10.0, digest="e" * 64),
    }.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(body))
    assert perf_run.compare(paths["base"], paths["base"]) == 0
    assert perf_run.compare(paths["base"], paths["noise"]) == 0
    assert perf_run.compare(paths["base"], paths["fast"]) == 0
    assert perf_run.compare(paths["base"], paths["slow"]) == 1
    assert perf_run.compare(paths["base"], paths["changed"]) == 1
    assert "DIFFERENT" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "txn_soak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
