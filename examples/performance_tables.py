#!/usr/bin/env python3
"""Regenerate the full "SODA Performance" table (p. 115).

All twelve payload sizes for PUT / GET / EXCHANGE, non-pipelined and
pipelined, side by side with the paper's published milliseconds, plus
the overhead-breakdown table and the \\*MOD comparison.

Run:  python examples/performance_tables.py          (full, ~2 min)
      python examples/performance_tables.py --quick  (5 sizes, ~30 s)
"""

import sys

from repro.bench.breakdown import measure_signal_breakdown
from repro.bench.comparison import measure_comparison
from repro.bench.perf_tables import WORD_SIZES, generate_performance_table
from repro.bench.tables import format_table


def main() -> None:
    quick = "--quick" in sys.argv
    sizes = [0, 1, 100, 500, 1000] if quick else WORD_SIZES

    for verb in ("put", "get", "exchange"):
        for pipelined in (False, True):
            rows = generate_performance_table(verb, pipelined, sizes=sizes)
            title = (
                f"Milliseconds per {verb.upper()} "
                f"({'pipelined' if pipelined else 'non-pipelined'})"
            )
            print(
                format_table(
                    ["words", "measured ms", "paper ms", "packets/txn"],
                    [
                        (r.words, r.measured_ms, r.paper_ms, r.packets)
                        for r in rows
                    ],
                    title=title,
                )
            )
            print()

    breakdown = measure_signal_breakdown()
    rows = [
        (name, breakdown.measured_ms[name], breakdown.paper_ms[name])
        for name in breakdown.paper_ms
    ]
    rows.append(("TOTAL", breakdown.total_measured_ms, breakdown.total_paper_ms))
    print(
        format_table(
            ["category", "measured ms", "paper ms"],
            rows,
            title="Breakdown of protocol time (2 packets per SIGNAL)",
        )
    )
    print(f"elapsed B_SIGNAL call: {breakdown.elapsed_call_ms:.2f} ms\n")

    comparison = measure_comparison()
    print(
        format_table(
            ["scenario", "measured ms", "paper ms"],
            [(r.scenario, r.measured_ms, r.paper_ms) for r in comparison],
            title="SODA vs *MOD (single-word transactions)",
        )
    )


if __name__ == "__main__":
    main()
