"""The "SODA Performance" table (p. 115): T1-T3.

Milliseconds per PUT / GET / EXCHANGE at payload sizes from 0 to 1000
words, for the non-pipelined and pipelined kernels, measured on the
streaming workload of §5.5 (MAXREQUESTS=3, ACCEPT in the server
handler).  ``PAPER_PERFORMANCE_MS`` holds the published values for
side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.tables import dict_table
from repro.bench.workloads import run_stream

#: Payload sizes, in 16-bit words, of the paper's table columns.
WORD_SIZES: List[int] = [0, 1, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]

#: The columns ``tables --quick`` and ``bench obs`` (BENCH_obs.json) run.
QUICK_SIZES: List[int] = [0, 1, 100, 500, 1000]

#: Published values (milliseconds), keyed by (verb, pipelined).
PAPER_PERFORMANCE_MS: Dict[Tuple[str, bool], List[int]] = {
    ("put", False): [7, 8, 11, 16, 19, 23, 27, 31, 35, 39, 43, 47],
    ("put", True): [8, 8, 12, 15, 19, 23, 28, 31, 35, 39, 43, 46],
    ("get", False): [7, 16, 20, 23, 28, 32, 35, 39, 43, 48, 52, 55],
    ("get", True): [8, 11, 16, 19, 23, 27, 31, 34, 39, 42, 47, 50],
    ("exchange", False): [7, 22, 32, 44, 57, 65, 75, 86, 96, 107, 117, 128],
    ("exchange", True): [8, 12, 20, 27, 35, 43, 50, 58, 67, 75, 82, 90],
}

#: Packets per transaction the paper states for each variant.
PAPER_PACKETS: Dict[Tuple[str, bool], int] = {
    ("put", False): 2,
    ("put", True): 2,
    ("get", False): 4,
    ("get", True): 2,
    ("exchange", False): 6,
    ("exchange", True): 2,
}


@dataclass
class PerfRow:
    words: int
    measured_ms: float
    paper_ms: float
    packets: float

    def to_dict(self) -> Dict[str, float]:
        """Machine-readable form for ``BENCH_*.json`` snapshots."""
        return {
            "words": self.words,
            "measured_ms": self.measured_ms,
            "paper_ms": self.paper_ms,
            "packets": self.packets,
        }


def _buffer_words(verb: str, words: int) -> Tuple[int, int]:
    if verb == "put":
        return words, 0
    if verb == "get":
        return 0, words
    if verb == "exchange":
        return words, words
    raise ValueError(f"unknown verb {verb!r}")


def measure_cell(
    verb: str, words: int, pipelined: bool, seed: int = 5
) -> Tuple[float, float]:
    """One table cell: (ms per transaction, packets per transaction)."""
    put_words, get_words = _buffer_words(verb, words)
    result = run_stream(
        put_words, get_words, pipelined=pipelined, seed=seed
    )
    return result.per_txn_ms, result.packets_per_txn


def generate_performance_table(
    verb: str,
    pipelined: bool,
    sizes: List[int] = WORD_SIZES,
    seed: int = 5,
) -> List[PerfRow]:
    """Regenerate one of the six sub-tables."""
    paper = PAPER_PERFORMANCE_MS[(verb, pipelined)]
    rows = []
    for i, words in enumerate(sizes):
        ms, packets = measure_cell(verb, words, pipelined, seed=seed)
        paper_ms = paper[WORD_SIZES.index(words)] if words in WORD_SIZES else float("nan")
        rows.append(
            PerfRow(words=words, measured_ms=ms, paper_ms=paper_ms, packets=packets)
        )
    return rows


Body = Dict[str, List[Dict[str, float]]]


def _key(verb: str, pipelined: bool) -> str:
    return f"{verb}.{'pipelined' if pipelined else 'non_pipelined'}"


def performance_tables(sizes: List[int]) -> Body:
    """All six sub-tables, keyed ``<verb>.<pipelined|non_pipelined>``."""
    body: Body = {}
    for verb in ("put", "get", "exchange"):
        for pipelined in (False, True):
            rows = generate_performance_table(verb, pipelined, sizes=sizes)
            body[_key(verb, pipelined)] = [row.to_dict() for row in rows]
    return body


def run(ns) -> Body:
    """``bench obs``: the tables at the quick sizes."""
    return performance_tables(QUICK_SIZES)


def render(body: Body) -> str:
    columns = (
        ("words", "words"),
        ("measured ms", "measured_ms"),
        ("paper ms", "paper_ms"),
        ("packets", "packets"),
    )
    tables = []
    for name, rows in body.items():
        verb, _, variant = name.partition(".")
        title = f"{verb.upper()} ({variant.replace('_', '-')})"
        tables.append(dict_table(title, columns, rows))
    return "\n\n".join(tables)


def _tolerance(pipelined: bool, words: int) -> float:
    """How far a cell may sit from ``paper_ms``, as a fraction of it.
    Small pipelined transfers overlap more deeply in our kernel than in
    the paper's, whose held request was picked up only at ENDHANDLER
    after a full accept turnaround, so those cells run faster."""
    return 0.60 if pipelined and words <= 100 else 0.40


#: The payload the pipelining verdict compares at (a ``QUICK_SIZES`` column).
SPEEDUP_WORDS = 500


def _speedup(body: Body, verb: str) -> float:
    """Non-pipelined over pipelined milliseconds at ``SPEEDUP_WORDS``."""
    ms = {
        pipelined: row["measured_ms"]
        for pipelined in (False, True)
        for row in body[_key(verb, pipelined)]
        if row["words"] == SPEEDUP_WORDS
    }
    return ms[False] / ms[True]


def verdicts(body: Body) -> List[str]:
    """The paper's shape: its packet counts per transaction, latency
    that grows with payload size and stays within the paper tolerance
    of each published cell, and pipelining that pays off more for
    EXCHANGE (6 -> 2 packets) than for GET (4 -> 2)."""
    problems = []
    for (verb, pipelined), packets in PAPER_PACKETS.items():
        name = _key(verb, pipelined)
        for row in body[name]:
            # A zero-word request degenerates to a two-packet SIGNAL.
            expected = packets if row["words"] else 2
            if round(row["packets"]) != expected:
                problems.append(
                    f"{name} at {row['words']} words: {row['packets']} "
                    f"packets per transaction, paper says {expected}"
                )
            tolerance = _tolerance(pipelined, row["words"])
            off = abs(row["measured_ms"] - row["paper_ms"])
            if off > tolerance * row["paper_ms"]:
                problems.append(
                    f"{name} at {row['words']} words: {row['measured_ms']:.1f} "
                    f"ms, not within {tolerance:.0%} of the paper's "
                    f"{row['paper_ms']}"
                )
        latencies = [row["measured_ms"] for row in body[name]]
        if latencies != sorted(latencies):
            problems.append(f"{name}: latency does not grow with size")
    get, exchange = _speedup(body, "get"), _speedup(body, "exchange")
    if not 1 < get < exchange:
        problems.append(
            f"pipelining at {SPEEDUP_WORDS} words: GET {get:.2f}x, EXCHANGE "
            f"{exchange:.2f}x; the paper has 1 < GET < EXCHANGE"
        )
    return problems
