"""CLI surface: `python -m repro lint`, `check-trace`, and `causal`."""

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


def test_check_trace_clean_workload(capsys):
    assert main(["check-trace", "echo"]) == 0
    assert "echo: ok" in capsys.readouterr().out


def test_check_trace_rejects_unknown_workload(capsys):
    assert main(["check-trace", "no-such-workload"]) == 2
    assert "unknown workload(s): no-such-workload" in capsys.readouterr().err


def test_check_trace_json_names_records_and_violations(tmp_path, capsys):
    json_path = tmp_path / "trace.json"
    assert main(["check-trace", "echo", "--json", str(json_path)]) == 0
    assert "all invariants hold" in capsys.readouterr().out
    body = json.loads(json_path.read_text())["body"]
    (echo,) = body["workloads"]
    assert echo["workload"] == "echo"
    assert echo["records"] > 0
    assert echo["violations"] == []


def test_causal_defaults_to_the_clean_workloads(capsys):
    assert main(["causal", "echo", "signal"]) == 0
    assert "causal: 2/2 workload(s) clean" in capsys.readouterr().out


def test_causal_flags_the_noarb_philosophers(tmp_path, capsys):
    json_path = tmp_path / "causal.json"
    status = main(["causal", "philosophers_noarb", "--json", str(json_path)])
    assert status == 1
    assert "SODA013" in capsys.readouterr().out
    body = json.loads(json_path.read_text())["body"]
    assert any(
        "SODA013" in diag
        for wl in body["workloads"]
        for diag in wl["diagnostics"]
    )


def test_causal_rejects_unknown_workload():
    assert main(["causal", "no-such-workload"]) == 2


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


def test_main_help_mentions_analysis_commands(capsys):
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    for name in ("lint", "check-trace", "causal"):
        assert f"python -m repro {name} " in help_text
        assert COMMANDS[name].description in help_text
