"""CLI surface: `python -m repro lint`, and a workload's judged run as a
calm `chaos` cell.

`check-trace` and `causal` are gone: a calm `chaos` cell judges a
workload with the same checker, span builder and causal sink, plus
liveness, KV and self-heal.  Their tests map as follows:

* ``test_check_trace_clean_workload`` and
  ``test_check_trace_json_names_records_and_violations`` ->
  ``tests/analysis/test_invariants.py::
  test_shipped_workloads_hold_all_invariants`` (the same nine workloads)
  and ``tests/test_cli.py::test_json_command_writes_a_snapshot[chaos]``;
* ``test_causal_defaults_to_the_clean_workloads`` ->
  ``tests/analysis/test_causal.py::
  test_shipped_workloads_are_race_and_deadlock_free``;
* ``test_causal_flags_the_noarb_philosophers`` ->
  ``tests/analysis/test_causal.py::
  test_philosophers_noarb_deadlocks_with_the_full_ring`` and
  ``test_chaos_causal_flags_the_noarb_philosophers`` below;
* ``test_check_trace_rejects_unknown_workload`` and
  ``test_causal_rejects_unknown_workload`` ->
  ``tests/test_cli.py::test_unknown_names_are_usage_errors``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def test_lint_is_clean_on_shipped_programs():
    status = main(
        ["lint", str(ROOT / "src" / "repro" / "apps"), str(ROOT / "examples")]
    )
    assert status == 0


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.glob("bad_*.py"))
)
def test_lint_fails_on_each_bad_fixture(fixture, capsys):
    assert main(["lint", str(FIXTURES / fixture)]) == 1
    assert "SODA" in capsys.readouterr().out


def test_lint_disable_flag_silences_a_rule():
    status = main(
        ["lint", "--disable=SODA001", str(FIXTURES / "bad_soda001.py")]
    )
    assert status == 0


def test_lint_missing_path_is_a_usage_error(capsys):
    assert main(["lint", str(FIXTURES / "no_such_file.py")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_lint_json_snapshot(tmp_path):
    json_path = tmp_path / "lint.json"
    status = main(
        ["lint", str(FIXTURES / "bad_soda001.py"), "--json", str(json_path)]
    )
    assert status == 1
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == "soda.bench/1"
    assert any(
        f["rule_id"] == "SODA001" for f in payload["body"]["findings"]
    )


def test_chaos_causal_flags_the_noarb_philosophers(tmp_path, capsys):
    json_path = tmp_path / "noarb.json"
    status = main(
        ["chaos", "--workload", "philosophers_noarb", "--schedule", "calm",
         "--causal", "--no-shrink", "--json", str(json_path)]
    )
    assert status == 1
    assert "SODA013" in capsys.readouterr().out
    row = json.loads(json_path.read_text())["body"]["rows"][
        "philosophers_noarb/calm"
    ]
    assert any("SODA013" in line for line in row["causal_problems"])


def test_main_help_mentions_analysis_commands(capsys):
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    assert "python -m repro lint " in help_text
    assert COMMANDS["lint"].description in help_text
