"""The chaos matrix's verdicts: ``bench chaos`` and ``BENCH_chaos.json``.

Every standard workload under every named fault schedule at seed 1
(docs/CHAOS.md; ``chaos --matrix --seed N --json`` writes the same rows
at another seed, and at seed 1 this file's bytes),
one row per cell keyed ``workload/schedule`` and written on one line:
the cell's :meth:`~repro.chaos.runner.CellResult.to_dict` without its
key fields and without the lists that are empty.  A clean cell has no problem
column at all, so ``--causal``, which only adds the SODA010-014 column,
writes the same bytes on a clean matrix.

The committed file is the verdict contract (DESIGN.md §12.4): a change
that moves a cell's verdict, fault counts, frames or span outcomes
moves its row, and ``--check`` says which.  ``verdicts`` wants every
cell clean.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: The one seed the committed file holds.
SEED = 1

#: ``CellResult`` fields a row is keyed by, not a column of.
_KEY = ("workload", "schedule", "seed")


def body(results: Sequence, seed: int) -> Dict[str, object]:
    """The body for a one-seed sweep's cell results:
    ``{"workload/schedule": row}`` under ``rows``.  ``bench chaos``
    writes it at :data:`SEED`, ``chaos --json`` at its ``--seed``."""
    return {
        "seed": seed,
        "rows": {
            f"{result.workload}/{result.schedule}": {
                column: value
                for column, value in result.to_dict().items()
                if column not in _KEY and value != []
            }
            for result in results
        },
    }


def run(ns) -> Dict[str, object]:
    from repro.chaos.runner import run_matrix

    return body(
        run_matrix(seeds=(SEED,), causal=ns.causal, parallel=ns.parallel),
        SEED,
    )


def render(body) -> str:
    cells = body["rows"]
    clean = sum(1 for row in cells.values() if row["ok"])
    return f"chaos: {clean}/{len(cells)} cell(s) clean at seed {body['seed']}"


def verdicts(body) -> List[str]:
    return [
        f"{cell} is not clean"
        for cell, row in body["rows"].items()
        if not row["ok"]
    ]
