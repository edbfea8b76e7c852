"""Doc drift: every ``python -m repro …`` line the docs show must parse.

README.md, ``docs/*.md``, DESIGN.md, the CI workflow and the verify
skill quote the CLI about a hundred times.  A renamed command or a
removed flag (``tables`` went, ``bench obs`` took its sizes) used to mean
grepping ten files by hand; now the line that still shows it fails
here, against the same ``build_parser()`` the CLI runs.  Parsing only: nothing is executed, and workload / schedule
names are the commands' own business at run time.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

from repro.bench.breakdown import BREAKDOWN_PAPER_MS
from repro.cli import build_parser
from repro.sim.tracing import TRACE_SCHEMA

ROOT = Path(__file__).resolve().parents[1]

#: A quoted command runs to the end of its line or of its `code span`.
COMMAND = re.compile(r"python -m repro\b([^`\n]*)")

#: Where the literal part of a documented command ends: a shell operator
#: (``a | b`` alternatives, ``<placeholder>``), an optional ``[part]``,
#: an ellipsis, a ``$`` expansion (CI's ``bench ${{ matrix.bench }}``).
#: ``#`` comments are shlex's to drop.
STOP = tuple("|&;<>()[$") + ("…", "...")


def documented_commands(path: Path) -> Iterator[List[str]]:
    """The argv of every ``python -m repro`` occurrence in ``path``."""
    text = path.read_text(encoding="utf-8").replace("\\\n", " ")
    for match in COMMAND.finditer(text):
        lexer = shlex.shlex(match.group(1), posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        argv: List[str] = []
        for token in lexer:
            if token.startswith(STOP):
                break
            argv.append(token)
        yield argv


DOCS = [
    path
    for path in [
        ROOT / "README.md",
        ROOT / "DESIGN.md",
        ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md")),
        ROOT / ".github" / "workflows" / "ci.yml",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
    if path.exists() and any(True for _ in documented_commands(path))
]


def test_the_docs_quote_the_cli():
    # The scan itself must keep finding them (74 in README and docs/
    # when this was written, 107 once DESIGN.md, CI and SKILL.md joined).
    assert sum(len(list(documented_commands(path))) for path in DOCS) >= 100
    assert ROOT / "docs" / "ANALYSIS.md" in DOCS
    assert ROOT / ".github" / "workflows" / "ci.yml" in DOCS


@pytest.mark.parametrize("path", DOCS, ids=lambda path: path.name)
def test_documented_commands_parse(path):
    parser = build_parser()
    rejected = []
    for argv in documented_commands(path):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(
                io.StringIO()
            ):
                # A bare `python -m repro` runs quickstart, as in main().
                parser.parse_args(argv or ["quickstart"])
        except SystemExit as exc:  # argparse: 2 = rejected, 0 = --help
            if exc.code:
                reason = stderr.getvalue().strip().splitlines()[-1]
                rejected.append(f"python -m repro {' '.join(argv)}\n    {reason}")
    assert not rejected, f"{path.name}:\n" + "\n".join(rejected)


# -- bench names --------------------------------------------------------------

#: A bench named in prose or code: `bench NAME`, repro bench NAME,
#: BENCH_NAME.json.  Placeholders (``<name>``, ``*``) do not match.
BENCH_NAME = re.compile(
    r"`bench ([a-z_]+)|repro bench ([a-z_]+)|BENCH_([a-z_]+)\.json"
)

#: Where a bench is named as current; DESIGN.md, CHANGES.md and
#: ROADMAP.md are history and may name benches that are gone.
NAMING = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((ROOT / "src").rglob("*.py")),
]


def test_named_benches_are_registered():
    """A deleted or renamed bench fails every line that still names it
    (or names a BENCH file ``bench --check`` would reject)."""
    from repro.bench.registry import BENCHES

    named, unknown = 0, []
    for path in NAMING:
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        for match in BENCH_NAME.finditer(text):
            named += 1
            if next(filter(None, match.groups())) not in BENCHES:
                line = text.count("\n", 0, match.start()) + 1
                unknown.append(f"{path.relative_to(ROOT)}:{line}: {match[0]}")
    assert named >= 30
    assert not unknown, "no BENCHES row:\n" + "\n".join(unknown)


# -- EXPERIMENTS.md quotes BENCH_obs.json -------------------------------------

def experiments_numbers(section: str) -> List[Tuple[str, str]]:
    """``(row, printed number)`` for each "measured" and "paper" cell of
    the table under EXPERIMENTS.md's ``## <section>`` heading (T4 adds
    the elapsed call below its table)."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = text.split(f"\n## {section} ")[1].split("\n## ")[0]
    lines = [line for line in block.splitlines() if line.startswith("|")]
    numbers = [
        (row[0].strip(), number)
        for row in (line.strip("|").split("|") for line in lines[2:])
        for cell in row[1:3]
        for number in re.findall(r"\d+(?:\.\d+)?", cell)
    ]
    elapsed = re.search(r"Elapsed B_SIGNAL call: ([\d.]+) ms", block)
    return numbers + ([("elapsed call", elapsed[1])] if elapsed else [])


def committed_numbers(section: str, body) -> List[float]:
    """The same numbers, in the same order, from ``BENCH_obs.json``."""
    both = ("measured_ms", "paper_ms")
    verb = {"T1": "put", "T2": "get", "T3": "exchange"}.get(section)
    if verb:
        kernels = (body[f"{verb}.{k}"] for k in ("non_pipelined", "pipelined"))
        rows = [row for size in zip(*kernels) for row in size]
    elif section == "T4":
        part = body["breakdown"]
        return [part[key][name] for name in BREAKDOWN_PAPER_MS for key in both] + [
            part["total_measured_ms"], part["total_paper_ms"],
            part["elapsed_call_ms"],
        ]
    else:
        rows = body["comparison"]
    return [row[key] for row in rows for key in both]


@pytest.mark.parametrize(
    "section", ["T1", "T2", "T3", "T4", "C1/C2"], ids=lambda s: s.replace("/", "-")
)
def test_experiments_quote_the_committed_chapter(section):
    """Every "measured / paper" number EXPERIMENTS.md prints is
    ``BENCH_obs.json``'s, rounded to the digits printed: a model change
    that moves the file must move the document with it.  That is 72
    T1-T3 cells, the 7 T4 rows and the elapsed call, and 6 C1-C2 rows."""
    body = json.loads((ROOT / "BENCH_obs.json").read_text())["body"]
    printed = experiments_numbers(section)
    values = committed_numbers(section, body)
    assert len(printed) == len(values)
    stale = [
        f"{row}: EXPERIMENTS.md prints {text}, BENCH_obs.json has {value}"
        for (row, text), value in zip(printed, values)
        if f"{value:.{len(text.partition('.')[2])}f}" != text
    ]
    assert not stale, "\n".join(stale)


# -- imports in snippets ------------------------------------------------------

#: A ``repro`` import a snippet shows: one line, or a parenthesised list.
DOC_IMPORT = re.compile(
    r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|[^\n(]+)|import repro[\w.]*)",
    re.MULTILINE,
)

#: Where a reader copies code from: the current docs ``NAMING`` scans.
SNIPPETS = [path for path in NAMING if path.suffix == ".md"]


def test_documented_imports_resolve():
    """A package ``__init__`` re-exports nothing (DESIGN.md §7), so a
    snippet that still imports a name from its package fails here."""
    shown, broken = 0, []
    for path in SNIPPETS:
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        for match in DOC_IMPORT.finditer(text):
            shown += 1
            try:
                exec(compile(match[1], str(path), "exec"), {})
            except ImportError as exc:
                line = text.count("\n", 0, match.start()) + 1
                broken.append(f"{path.relative_to(ROOT)}:{line}: {exc}")
    assert shown >= 9
    assert not broken, "\n".join(broken)


# -- the trace schema table (ROADMAP 5d) --------------------------------------

SCHEMA_BEGIN = "<!-- trace-schema:begin (rendered from TRACE_SCHEMA) -->\n"
SCHEMA_END = "\n<!-- trace-schema:end -->"


def render_trace_schema() -> str:
    """docs/OBSERVABILITY.md's "Trace schema" table, from the table."""
    lines = ["| category | fields, in `record()` order |", "|---|---|"]
    lines += [
        f"| `{category}` | {', '.join(f'`{name}`' for name in row)} |"
        for category, row in TRACE_SCHEMA.items()
    ]
    return "\n".join(lines)


def test_the_trace_schema_table_is_the_schema():
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    shown = text.split(SCHEMA_BEGIN)[1].split(SCHEMA_END)[0]
    expected = render_trace_schema()
    assert shown == expected, (
        "docs/OBSERVABILITY.md drifted from TRACE_SCHEMA; between the "
        "markers it should read:\n" + expected
    )


# -- cited DESIGN sections ----------------------------------------------------

#: A DESIGN.md citation and the section numbers that follow it:
#: "DESIGN.md §12", "DESIGN.md §12.2, §12.3", "DESIGN.md §9 and §13".
SECTION = r"§\s?(\d+(?:\.\d+)?)"
DESIGN_CITATION = re.compile(
    r"DESIGN\.md((?:\s*(?:,|and|or)?\s*§\s?\d+(?:\.\d+)?)+)"
)

#: Where the sections are cited from.
CITING = [
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / "ROADMAP.md",
    *(
        path
        for tree in ("src", "tests", "perf", "docs")
        for path in sorted((ROOT / tree).rglob("*"))
        if path.suffix in (".py", ".md")
    ),
]


def test_cited_design_sections_exist():
    """A renumbered, merged or deleted DESIGN.md section fails every
    citation of it here, not in a reader's hands."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    headings = set(
        re.findall(r"^## (\d+)\. |^### (\d+\.\d+) ", design, re.MULTILINE)
    )
    headings = {top or sub for top, sub in headings}
    cited = {}
    for path in CITING:
        text = path.read_text(encoding="utf-8")
        for match in DESIGN_CITATION.finditer(text):
            for section in re.findall(SECTION, match.group(1)):
                cited.setdefault(section, str(path.relative_to(ROOT)))
    # 21 distinct sections and subsections when DESIGN.md was rewritten
    # to one section per mechanism.  It read 14 (§9-§22) before: merging
    # sections lowers the count of top-level ones, so subsections are
    # counted now, and every citation is still checked.
    assert len(cited) >= 21
    dangling = {
        section: path for section, path in cited.items()
        if section not in headings
    }
    assert not dangling, f"cited but no '## N.' / '### N.M' heading: {dangling}"
