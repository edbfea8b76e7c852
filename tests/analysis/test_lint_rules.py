"""sodalint rule tests driven by the fixture programs.

Every rule has a ``bad_sodaNNN.py`` fixture that must trip exactly that
rule and an ``ok_sodaNNN.py`` counterpart that must lint clean; the
pragma fixtures prove suppression is scoped to the named rule.

``test_bad_fixture_trips_exactly_its_rule[SODA008]``,
``test_ok_fixture_is_clean[SODA008]`` and ``test_cli.py``'s
``test_lint_fails_on_each_bad_fixture[bad_soda008.py]`` are gone with
their rule: SODA008 flagged a task loop on ``yield api.idle()``, and
``api.idle`` no longer exists (``poll`` is the one idle wait).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.linter import (
    PARSE_ERROR_RULE,
    LintConfig,
    Linter,
    has_errors,
    lint_paths,
)
from repro.analysis.rules import (
    _REGISTRY,
    LintRule,
    all_rules,
    get_rule,
    register_rule,
)

FIXTURES = Path(__file__).parent / "fixtures"
RULE_IDS = ["SODA001", "SODA002", "SODA003", "SODA004", "SODA005", "SODA006"]


def lint_fixture(name: str, config: LintConfig = None):
    return Linter(config).lint_file(FIXTURES / name)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_trips_exactly_its_rule(rule_id):
    diags = lint_fixture(f"bad_{rule_id.lower()}.py")
    assert diags, f"bad fixture for {rule_id} produced no diagnostics"
    assert {d.rule_id for d in diags} == {rule_id}
    assert has_errors(diags)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_ok_fixture_is_clean(rule_id):
    assert lint_fixture(f"ok_{rule_id.lower()}.py") == []


def test_registry_has_all_builtin_rules():
    assert {rule.rule_id for rule in all_rules()} >= set(RULE_IDS)
    for rule_id in RULE_IDS:
        rule = get_rule(rule_id)
        assert rule.rule_id == rule_id
        assert rule.summary


def test_line_pragma_suppresses_only_named_rule():
    diags = lint_fixture("pragma_line.py")
    rule_ids = {d.rule_id for d in diags}
    assert "SODA003" not in rule_ids, "line pragma should suppress SODA003"
    assert "SODA005" in rule_ids, "pragma must not swallow other rules"


def test_filewide_pragma_covers_whole_file():
    diags = lint_fixture("pragma_filewide.py")
    rule_ids = {d.rule_id for d in diags}
    assert "SODA005" not in rule_ids
    assert "SODA001" in rule_ids


def test_config_disable_and_enabled_only():
    bad = FIXTURES / "bad_soda001.py"
    assert Linter(LintConfig(disabled=frozenset({"SODA001"}))).lint_file(bad) == []
    only_006 = Linter(LintConfig(enabled_only=frozenset({"SODA006"})))
    assert only_006.lint_file(bad) == []
    diags = Linter(LintConfig(enabled_only=frozenset({"SODA001"}))).lint_file(bad)
    assert {d.rule_id for d in diags} == {"SODA001"}


def test_syntax_error_becomes_soda000():
    diags = Linter().lint_source("def broken(:\n", "broken.py")
    assert len(diags) == 1
    assert diags[0].rule_id == PARSE_ERROR_RULE
    assert diags[0].severity is Severity.ERROR


def test_diagnostic_format_is_clickable():
    diag = Diagnostic(
        rule_id="SODA001", message="boom", file="x.py", line=3, col=4
    )
    assert diag.format() == "x.py:3:4: SODA001 [error] boom"


def test_extension_rule_registration_and_teardown():
    class NoSignalRule(LintRule):
        rule_id = "EXT901"
        summary = "forbid api.signal entirely"

        def check(self, model):
            import ast

            from repro.analysis.model import api_call_name

            for cls, node in model.walk_program_code():
                if isinstance(node, ast.Call) and api_call_name(node) == "signal":
                    yield self.diagnostic(model, node, "no signals allowed")

    register_rule(NoSignalRule)
    try:
        # A Linter built *before* registration still picks the rule up:
        # the rule list is resolved lazily from the registry.
        diags = Linter().lint_file(FIXTURES / "bad_soda003.py")
        assert "EXT901" in {d.rule_id for d in diags}
    finally:
        del _REGISTRY["EXT901"]
    assert "EXT901" not in {rule.rule_id for rule in all_rules()}


def test_lint_paths_walks_directories():
    diags = lint_paths([FIXTURES])
    found = {d.rule_id for d in diags}
    assert set(RULE_IDS) <= found
