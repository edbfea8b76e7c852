"""Tier-1 gate: shipped programs lint clean, configs are present.

This is the enforcement point for the sodalint conventions: any app or
example that starts violating a SODA rule fails the suite, and the bad
fixtures guarantee the linter itself still has teeth.  The causal-rule
fixtures below play the same role for the SODA010+ trace rules: each
seeded bug must keep producing its exact diagnostic.
(``test_streaming_checker_agrees_with_batch_on_a_real_run`` went with the
batch checker; ``tests/analysis/test_streaming_checker.py`` maps it.)
``test_pyproject_carries_static_analysis_config`` looked for the marker
that armed the teardown trace judge per directory; the judge always
runs now, so that marker and its command-line option are gone, and the
test looks for the ``expect_violations`` marker that took their place.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.linter import has_errors, lint_paths

ROOT = Path(__file__).resolve().parents[1]


def test_shipped_programs_lint_clean():
    diags = lint_paths([ROOT / "src" / "repro" / "apps", ROOT / "examples"])
    assert not has_errors(diags), "\n".join(d.format() for d in diags)


def test_bad_fixtures_still_fail_the_linter():
    fixtures = ROOT / "tests" / "analysis" / "fixtures"
    bad = sorted(fixtures.glob("bad_*.py"))
    assert len(bad) >= 6, "expected one violating fixture per rule"
    for path in bad:
        assert has_errors(lint_paths([path])), (
            f"{path.name} should fail the linter"
        )


def test_pyproject_carries_static_analysis_config():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "[tool.ruff]" in text
    assert "[tool.mypy]" in text
    assert "expect_violations" in text
    assert "repro.analysis.causal" in text


# -- causal trace rules keep their teeth (seeded-bug fixtures) ---------


def _causal_fixture(rows):
    from repro.sim.tracing import Tracer

    trace = Tracer()
    for time, category, fields in rows:
        trace.record(time, category, **fields)
    return list(trace.records)


def _fired(records):
    from repro.analysis.causal import build_causal_order, detect_deadlocks
    from repro.obs.spans import build_spans

    return build_causal_order(records).finish() + detect_deadlocks(
        build_spans(records)
    )


def test_seeded_causality_inversion_fires_soda010():
    records = _causal_fixture([
        (0.0, "kernel.request", dict(mid=0, tid=5, dst=1)),
        # Delivery with no wire edge back to the REQUEST.
        (20.0, "kernel.delivered_state",
         dict(mid=1, src=0, tid=5, state="delivered")),
    ])
    diags = _fired(records)
    assert [d.rule_id for d in diags] == ["SODA010"], diags
    assert diags[0].witness


def test_seeded_accept_reset_race_fires_soda011():
    records = _causal_fixture([
        (0.0, "kernel.request", dict(mid=0, tid=5, dst=1)),
        (10.0, "kernel.client_reset", dict(mid=0, epoch=1)),
        (20.0, "kernel.complete", dict(mid=0, tid=5, status="completed")),
    ])
    diags = _fired(records)
    assert [d.rule_id for d in diags] == ["SODA011"], diags


def test_seeded_state_resurrection_fires_soda012():
    records = _causal_fixture([
        (0.0, "kernel.delivered_state",
         dict(mid=1, src=0, tid=5, state="delivered")),
        (10.0, "kernel.client_reset", dict(mid=1, epoch=1)),
        (20.0, "kernel.delivered_state",
         dict(mid=1, src=0, tid=5, state="accepted")),
    ])
    diags = _fired(records)
    assert [d.rule_id for d in diags] == ["SODA012"], diags


def test_seeded_wait_for_cycle_fires_soda013():
    records = _causal_fixture([
        (0.0, "kernel.request", dict(mid=0, tid=1, dst=1)),
        (10.0, "kernel.request", dict(mid=1, tid=1, dst=0)),
    ])
    diags = _fired(records)
    assert [d.rule_id for d in diags] == ["SODA013"], diags
