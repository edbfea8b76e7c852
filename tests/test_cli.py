"""Tests for the ``python -m repro`` entry point.

``test_every_command_has_generated_help[check-trace]`` and ``[causal]``
went with the two commands; ``tests/analysis/test_cli.py``'s docstring
maps what they judged.

``tables``, ``breakdown``, ``comparison`` and ``deltat`` went to
``bench obs``, their ``test_every_command_has_generated_help`` ids with
their rows.  ``test_json_command_writes_a_snapshot[tables]``,
``[breakdown]``, ``[comparison]`` and ``[deltat]`` are ``bench obs
--check --json`` (``tests/bench/test_registry.py``), and the ``rows``
list ``[comparison]`` wrote is ``tests/obs/test_export.py::
test_serialize_snapshot_compacts_only_a_rows_mapping``.
``[tables --quik]`` and ``[tables --qui]`` are ``[bench obs --quik]``
and ``[bench obs --qui]``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import COMMANDS, JSON, build_parser, flag_argv, main

ROOT = Path(__file__).resolve().parents[1]


def test_quickstart_runs(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "exchange: completed" in out
    assert "frames on the bus" in out


def test_breakdown_prints_table(capsys):
    assert main(["bench", "obs"]) == 0
    out = capsys.readouterr().out
    assert "client_overhead" in out
    assert "TOTAL" in out


def test_deltat_prints_scenarios(capsys):
    assert main(["bench", "obs"]) == 0
    out = capsys.readouterr().out
    assert "take-any" in out
    assert "FAILED" not in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "python -m repro" in capsys.readouterr().out


def test_unknown_command_fails(capsys):
    assert main(["bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # Each of these used to run anyway, or die with a traceback.
        ["chaos", "--workload", "echo", "--schedule", "calm", "--no-shrink",
         "--sed", "9"],
        ["bench", "obs", "--quik"],
        ["bench", "obs", "--qui"],  # no prefix matching either
        ["chaos", "--workload", "echo", "--schedule", "calm", "--seed", "x"],
        ["bench", "kv", "--seed"],
        ["lint", "--disable"],
        ["quickstart", "--json", "x"],  # --json only where it is honoured
        ["kv-bench"],  # removed name, no alias
        ["bench"],
        ["bench", "--all", "kv"],
    ],
    ids=" ".join,
)
def test_malformed_command_line_is_a_usage_error(argv, capsys, monkeypatch):
    import repro.chaos.runner
    import repro.bench.perf_tables

    def must_not_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(repro.chaos.runner, "run_matrix", must_not_run)
    monkeypatch.setattr(repro.bench.perf_tables, "run", must_not_run)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err or "bench:" in captured.err
    assert "Traceback" not in captured.err


def test_lint_disable_takes_its_value_as_the_next_word(capsys):
    # `--disable SODA001` used to be read as two paths to lint.
    fixture = Path(__file__).parent / "analysis/fixtures/bad_soda001.py"
    assert main(["lint", "--disable", "SODA001", str(fixture)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_unknown_names_are_usage_errors(capsys):
    assert main(["chaos", "--schedule", "nope"]) == 2
    assert main(["chaos", "--workload", "nope"]) == 2
    assert main(["real", "nope"]) == 2
    assert main(["real", "pingpong", "--schedule", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown schedule(s): nope" in captured.err
    assert "unknown workload(s): nope" in captured.err
    assert "unknown schedule 'nope'; choose from" in captured.err


@pytest.mark.parametrize(
    "workload, schedule, action",
    [("pingpong", "strike", "TargetedDrop"),
     ("kvstore", "thundering_herd", "ThunderingHerd")],
)
def test_real_refuses_a_schedule_that_does_not_fit(
    capsys, workload, schedule, action
):
    assert main(["real", workload, "--schedule", schedule]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"schedule {schedule!r} does not fit" in captured.err
    assert action in captured.err


def test_real_json_is_a_chaos_cell_result(capsys, tmp_path):
    """One verdict for both backends: a real run's ``--json`` body has
    exactly the keys of a chaos cell's ``CellResult.to_dict()``."""
    from repro.chaos.runner import run_cell

    path = tmp_path / "real.json"
    argv = ["real", "pingpong", "--schedule", "calm", "--seed", "3"]
    assert main(argv + ["--json", str(path)]) == 0
    assert "real: ok" in capsys.readouterr().out
    body = json.loads(path.read_text())["body"]
    assert body.keys() == run_cell("echo", "calm", 1).to_dict().keys()
    assert (body["workload"], body["schedule"], body["seed"]) == (
        "pingpong", "calm", 3,
    )
    assert body["ok"] and body["spans_by_status"]["completed"] > 0


def test_real_node_argv_round_trips_through_its_table_row():
    # `real` spawns each child with flag_argv(row.flags, values) and the
    # child parses that list with the same row.
    values = {
        "workload": "kvstore", "role": 0, "control": 5000,
        "trace": "/tmp/trace-0.jsonl", "seed": 3,
        "schedule": "cluster_restart",
    }
    argv = flag_argv(COMMANDS["real-node"].flags, values)
    assert argv[-2:] == ["--schedule", "cluster_restart"]
    parsed = vars(build_parser().parse_args(["real-node"] + argv))
    assert parsed == {"command": "real-node", **values}


def test_default_is_quickstart(capsys):
    assert main([]) == 0
    assert "exchange" in capsys.readouterr().out


def test_chaos_single_cell_exits_zero(capsys):
    code = main(
        ["chaos", "--workload", "echo", "--schedule", "calm", "--no-shrink"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1/1 cell(s) clean" in out


def test_chaos_matrix_failure_exits_nonzero(capsys, monkeypatch):
    # Regression: a failed cell must flip the process exit code (CI
    # keys off it), and --no-shrink must skip the shrink pass entirely.
    import repro.chaos.runner
    from repro.chaos.runner import CellResult

    failing = CellResult(
        workload="echo",
        schedule="calm",
        seed=1,
        horizon_us=0.0,
        liveness_problems=["span <1,1> never terminal"],
    )

    def fake_matrix(
        workloads=None, schedules=None, seeds=(1,), progress=None,
        causal=False, parallel=None,
    ):
        if progress is not None:
            progress(failing)
        return [failing]

    monkeypatch.setattr(repro.chaos.runner, "run_matrix", fake_matrix)
    assert main(["chaos", "--matrix", "--no-shrink"]) == 1
    out = capsys.readouterr().out
    assert "0/1 cell(s) clean" in out
    assert "never terminal" in out
    assert "minimal reproducer" not in out  # --no-shrink honoured


@pytest.mark.parametrize(
    "column", ["degradation_problems", "consistency_problems"]
)
def test_chaos_failure_lists_every_verdict_column(
    column, capsys, monkeypatch
):
    # Regression: a cell failing only on one of these two columns
    # printed FAIL with no reason, and its reproducer quoted none.
    import repro.chaos.runner
    from repro.chaos.runner import CellResult

    reason = "lost acknowledged write k=3 v=7"
    failing = CellResult(
        workload="echo", schedule="calm", seed=1, horizon_us=0.0,
        **{column: [reason]},
    )
    assert failing.problems() == [reason] and not failing.ok
    monkeypatch.setattr(
        repro.chaos.runner, "run_matrix", lambda **kwargs: [failing]
    )
    monkeypatch.setattr(repro.chaos.runner, "run_cell", lambda *a, **kw: failing)
    assert main(["chaos", "--workload", "echo", "--schedule", "calm"]) == 1
    out = capsys.readouterr().out
    assert f"echo/calm: {reason}" in out
    assert f"#   {reason}" in out  # the reproducer's docstring


def test_chaos_parallel_matches_serial_json(capsys, tmp_path):
    serial_path = tmp_path / "serial.json"
    parallel_path = tmp_path / "parallel.json"
    args = [
        "chaos",
        "--workload",
        "echo",
        "--schedule",
        "calm,strike",
        "--no-shrink",
    ]
    assert main(args + ["--json", str(serial_path)]) == 0
    assert (
        main(args + ["--parallel", "2", "--json", str(parallel_path)])
        == 0
    )
    capsys.readouterr()
    assert serial_path.read_bytes() == parallel_path.read_bytes()


#: One cheap run of every command that declares ``--json`` (``real``,
#: which needs sockets, has ``test_real_json_is_a_chaos_cell_result``).
JSON_RUNS = [
    ["metrics"],
    ["lint"],
    ["chaos", "--workload", "echo", "--schedule", "calm"],
    ["recover"],
]


def test_json_runs_cover_every_json_command():
    declared = {name for name, row in COMMANDS.items() if JSON in row.flags}
    assert declared - {"real"} == {argv[0] for argv in JSON_RUNS}


@pytest.mark.parametrize("argv", JSON_RUNS, ids=lambda argv: argv[0])
def test_json_command_writes_a_snapshot(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # lint's default paths are relative
    path = tmp_path / "out.json"
    assert main(argv + ["--json", str(path)]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    assert json.loads(path.read_text())["schema"] == "soda.bench/1"


def test_recover_demo_converges(capsys, tmp_path):
    json_path = tmp_path / "recover.json"
    assert main(["recover", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "self-heal: converged" in out
    assert "supervisor rebooted the node" in out
    assert "failure detector:" in out

    import json

    payload = json.loads(json_path.read_text())
    counts = payload["body"]["summary"]["counts"]
    assert counts["reboots_issued"] >= 1
    assert counts["restored"] >= 1
    assert payload["body"]["selfheal_problems"] == []


def test_help_lists_every_registered_command(capsys):
    """--help is generated from the COMMANDS table, and `bench --help`
    from BENCHES: every row that dispatches is listed with its
    description and each flag it declares — no drift possible."""
    from repro.bench.registry import BENCHES

    assert main(["--help"]) == 0
    listing = capsys.readouterr().out
    assert main(["bench", "--help"]) == 0
    bench_listing = capsys.readouterr().out
    for table, prefix, text in (
        (COMMANDS, "python -m repro", listing),
        (BENCHES, "python -m repro bench", bench_listing),
    ):
        for name, row in table.items():
            assert row.description and row.description in text, name
            start = text.index(f"{prefix} {name} ")
            usage = text[start : text.index(row.description, start)]
            for flag in row.flags:
                assert flag.help, (name, flag.name)
                assert flag.name in usage, (name, flag.name)
    assert "--json PATH" in bench_listing and "--check" in bench_listing
    # The tables are the single dispatch surface.
    for expected in ("quickstart", "chaos", "bench", "real"):
        assert expected in COMMANDS
    assert list(BENCHES) == [
        "obs", "transport", "kv", "durability", "chaos", "real",
    ]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_has_generated_help(name, capsys):
    assert main([name, "-h"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: python -m repro {name} ")
    assert COMMANDS[name].description in out
    for flag in COMMANDS[name].flags:
        assert flag.name in out
