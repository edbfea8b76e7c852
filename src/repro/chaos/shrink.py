"""Greedy schedule shrinking and reproducer formatting.

When a cell fails, the sweep does not just report it — it removes
schedule actions one at a time (re-running the cell each time) until no
single removal preserves the failure, then prints the minimal schedule
as a ready-to-paste regression test.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.chaos.scenario import Scenario


def shrink_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    max_runs: int = 64,
) -> Scenario:
    """Greedily remove actions while ``still_fails`` holds.

    Runs to a fixpoint: the result is 1-minimal (removing any single
    remaining action makes the failure disappear).  ``max_runs`` bounds
    the re-executions for pathological schedules.
    """
    current = scenario
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for index in range(len(current.actions)):
            trial = current.without(index)
            runs += 1
            if still_fails(trial):
                current = trial
                progress = True
                break
            if runs >= max_runs:
                break
    return current


def _format_actions(scenario: Scenario, indent: str = " " * 12) -> str:
    if not scenario.actions:
        return indent + "# (empty — the workload fails with no faults)"
    return "\n".join(f"{indent}{action!r}," for action in scenario.actions)


def format_repro(
    workload: str,
    seed: int,
    scenario: Scenario,
    problems: Sequence[str],
) -> str:
    """A ready-to-paste pytest regression test for a shrunk failure."""
    problem_lines = "\n".join(f"    #   {p}" for p in problems) or (
        "    #   (no recorded problems)"
    )
    return f'''\
def test_chaos_regression_{workload}_{scenario.name}_seed{seed}():
    """Shrunk reproducer from `python -m repro chaos`.

    Observed failure:
{problem_lines}
    """
    from repro.chaos.runner import run_cell
    from repro.chaos.scenario import (
        ClientDie, LossWindow, NodeCrash, Partition, Reboot, Scenario,
        TargetedDrop,
    )

    scenario = Scenario(
        name={scenario.name!r},
        actions=(
{_format_actions(scenario)}
        ),
    )
    result = run_cell({workload!r}, scenario.name, seed={seed}, scenario=scenario)
    assert result.ok, "\\n".join(result.problems())
'''
