"""The bench registry: `python -m repro bench <name> [--check]`.

`--check` is the one gate on the committed ``BENCH_*.json`` files.  It
subsumes the per-bench snapshot tests and the inline CI scripts that
preceded it; what each of those asserted is now made by:

* soda.bench/1 ``schema``, ``kind`` and ``meta`` of every snapshot
  (test_sim_bench::test_committed_snapshot_schema,
  test_bench_snapshot::test_envelope,
  test_cli::test_durability_bench_writes_snapshot) — the envelope step
  of ``check_committed``;
* ``all_finished`` and ``adaptive_recovers_faster_real`` of
  ``BENCH_real.json`` — ``real.verdicts``; the backend x policy grid —
  a missing key fails ``verdicts`` as a malformed snapshot here, and
  CI's ``--check`` compares every key of the committed file with a
  fresh run's;
* durability's "replay grows with log length" and "fsync always > batch
  >= never" (tail of test_bench_schema_and_determinism, and the CLI's
  own exit code) — ``durability.verdicts``; "a second run is
  byte-identical" — the byte comparison of ``bench durability --check``;
* T1-T3 of the ``benchmarks/`` suite (``test_performance_table[<verb>-
  <variant>]``, six ids: packets per transaction, growth with size,
  each cell within 40 % of ``paper_ms``, 60 % for pipelined cells of
  at most 100 words; ``test_pipelining_wins_where_paper_says``: at 500
  words 1 < GET speedup < EXCHANGE speedup) — ``perf_tables.verdicts``,
  which ``bench obs --check`` applies to a fresh run and to
  ``BENCH_obs.json``.

Two benches went, each verdict to the one place that owns its claim
(the model's results are measured here, the implementation's cost in
``perf/``):

* ``bench sim`` — ``test_sim_bench::test_body_shape_and_positive_rates``
  and ``::test_event_counts_are_deterministic_across_runs``: events per
  second are ``perf/``'s ``sim.events_per_s`` and
  ``sim.bare_events_per_s``, heap compaction is
  ``tests/sim/test_events.py::test_compaction_when_cancelled_dominate``,
  an idle poll tick's cost is
  ``tests/sodal/test_idle_wait.py::
  test_an_idle_hour_parks_one_waiter_and_costs_no_events``, and
  "counters-only mode makes fewer Python calls on the same events" is
  ``tests/sim/test_rng_tracing_clock.py::
  test_counters_only_tracing_makes_fewer_calls``;
  ``test_sim_bench::test_frame_cost_counts_and_verdicts`` (events and
  records per frame) — ``tests/obs/test_frame_records.py::
  test_kv_cell_keeps_its_records_per_frame``;
  ``test_committed_wall_clock_snapshot_is_healthy[sim]`` and
  ``test_cli::test_sim_bench_writes_snapshot`` (``--repeats`` /
  ``--scale``) — behaviour removed with the bench and its flags;
* ``bench analysis`` — ``test_fresh_run_reproduces_the_committed_bytes
  [analysis]``: peak open state against trace length is
  ``tests/analysis/test_streaming_checker.py::
  test_open_state_stays_sublinear_on_a_long_run`` (which also wants the
  long run clean under the checker and a ``CausalSink``), ``::
  test_peak_open_state_equals_a_recount_after_every_record`` and
  ``tests/integration/test_soak.py``; the causal counters are
  ``tests/analysis/test_causal_sink.py``'s comparison against its
  reference order.

``test_registry_names_the_seven_committed_snapshots`` is
``test_registry_names_the_five_committed_snapshots``.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench.registry import BENCHES, check_committed, load
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]

DETERMINISTIC = [name for name, bench in BENCHES.items() if bench.deterministic]


def test_registry_names_the_five_committed_snapshots():
    assert DETERMINISTIC == ["obs", "transport", "kv", "durability"]
    assert sorted(
        path.name for path in ROOT.glob("BENCH_*.json")
    ) == sorted(f"BENCH_{name}.json" for name in BENCHES)


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_fresh_run_reproduces_the_committed_bytes(
    name, capsys, monkeypatch, tmp_path
):
    monkeypatch.chdir(ROOT)
    written = tmp_path / "fresh.json"
    assert main(["bench", name, "--check", "--json", str(written)]) == 0
    out = capsys.readouterr().out
    assert f"bench {name}: ok, BENCH_{name}.json matches byte for byte" in out
    # --json is the regeneration path: same bytes, by the same envelope.
    assert written.read_bytes() == (ROOT / f"BENCH_{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["real"])
def test_committed_wall_clock_snapshot_is_healthy(name, monkeypatch):
    # The wall-clock bench is not re-run in tier 1 (it needs loopback
    # UDP); the committed file must still pass envelope and verdicts.
    monkeypatch.chdir(ROOT)
    assert check_committed(name) == []


def test_check_names_the_first_differing_key(capsys, monkeypatch, tmp_path):
    text = (ROOT / "BENCH_durability.json").read_text()
    assert '"fsyncs": 100,' in text
    (tmp_path / "BENCH_durability.json").write_text(
        text.replace('"fsyncs": 100,', '"fsyncs": 101,', 1)
    )
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "durability", "--check"]) == 1
    out = capsys.readouterr().out
    assert (
        "bench durability: FAILED: BENCH_durability.json: differs from "
        "this run at body.fsync_policies[1].fsyncs" in out
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCH_durability.json"]


def test_check_rejects_a_missing_or_foreign_snapshot(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert check_committed("durability") == [
        "BENCH_durability.json: No such file or directory"
    ]
    shutil.copy(ROOT / "BENCH_kv.json", tmp_path / "BENCH_durability.json")
    assert check_committed("durability") == [
        "BENCH_durability.json: not a soda.bench/1 durability_bench envelope"
    ]
    (tmp_path / "BENCH_durability.json").write_text('{"body": {}}')
    assert check_committed("durability") == [
        "BENCH_durability.json: malformed snapshot (KeyError('schema'))"
    ]


def test_wall_clock_check_compares_keys_not_values(monkeypatch, tmp_path):
    # What CI's `bench real --check` adds to the verdicts: the backend x
    # policy grid.
    from repro.obs.export import snapshot_payload

    monkeypatch.chdir(ROOT)
    fresh = snapshot_payload("real_bench", _committed_body("real"), {"seed": 1})
    fresh["body"]["backends"]["real"]["static"]["retransmits"] += 1
    assert check_committed("real", fresh) == []
    del fresh["body"]["backends"]["sim"]["static"]
    assert check_committed("real", fresh) == [
        "BENCH_real.json: differs from this run at "
        "body.backends.sim.static.completed_exchanges"
    ]


def _committed_body(name):
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())["body"]


def test_verdicts_bite_on_an_unhealthy_body():
    kv = _committed_body("kv")
    assert load(BENCHES["kv"]).verdicts(kv) == []
    kv["comparison"]["acknowledged_write_loss"] = 1
    assert load(BENCHES["kv"]).verdicts(kv) == [
        "1 acknowledged write(s) lost"
    ]
    kv["comparison"]["acknowledged_write_loss"] = 0
    # What calm cost while a calm primary ran an idle round every 200 ms
    # (28.57 while the supervisor broadcast once per replica and an idle
    # round sent CONFIRMs).
    kv["schedules"]["calm"]["requests_per_op"] = 15.67
    assert load(BENCHES["kv"]).verdicts(kv) == [
        "calm spends 15.67 kernel REQUESTs per op (> 1.1 x 10.73)"
    ]

    durability = _committed_body("durability")
    durability["fsync_policies"][0]["runtime_disk_us"] = 0.0  # "always"
    assert any(
        "always > batch >= never" in line
        for line in load(BENCHES["durability"]).verdicts(durability)
    )

    real = _committed_body("real")
    real["comparison"]["adaptive_recovers_faster_real"] = False
    real["backends"]["real"]["static"]["all_finished"] = False
    assert len(load(BENCHES["real"]).verdicts(real)) == 2

    obs = _committed_body("obs")
    assert load(BENCHES["obs"]).verdicts(obs) == []
    cell = obs["put.non_pipelined"][-1]
    measured, cell["measured_ms"] = cell["measured_ms"], 1.9 * cell["paper_ms"]
    assert load(BENCHES["obs"]).verdicts(obs) == [
        "put.non_pipelined at 1000 words: 89.3 ms, not within 40% of the "
        "paper's 47"
    ]
    cell["measured_ms"] = measured
    # EXCHANGE's 500-word speedup flattened to GET's 1.20x.
    at_500 = {
        name: next(row for row in rows if row["words"] == 500)["measured_ms"]
        for name, rows in obs.items()
    }
    get = at_500["get.non_pipelined"] / at_500["get.pipelined"]
    row = next(row for row in obs["exchange.pipelined"] if row["words"] == 500)
    row["measured_ms"] = at_500["exchange.non_pipelined"] / get
    assert load(BENCHES["obs"]).verdicts(obs) == [
        "pipelining at 500 words: GET 1.20x, EXCHANGE 1.20x; the paper has "
        "1 < GET < EXCHANGE"
    ]
