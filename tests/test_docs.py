"""Doc drift: every ``python -m repro …`` line the docs show must parse.

README.md and ``docs/*.md`` quote the CLI some seventy times.  A renamed
command or a removed flag (``check-trace`` lost one with the batch
checker) used to mean grepping ten files by hand; now the line that
still shows it fails here, against the same ``build_parser()`` the
CLI runs.  Parsing only: nothing is executed, and workload / schedule
names are the commands' own business at run time.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path
from typing import Iterator, List

import pytest

from repro.cli import build_parser
from repro.sim.tracing import TRACE_SCHEMA

ROOT = Path(__file__).resolve().parents[1]

#: A quoted command runs to the end of its line or of its `code span`.
COMMAND = re.compile(r"python -m repro\b([^`\n]*)")

#: Where the literal part of a documented command ends: a shell operator
#: (``a | b`` alternatives, ``<placeholder>``), an optional ``[part]``,
#: an ellipsis.  ``#`` comments are shlex's to drop.
STOP = tuple("|&;<>()[") + ("…", "...")


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
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    if any(True for _ in documented_commands(path))
]


def test_the_docs_quote_the_cli():
    # The scan itself must keep finding them (74 when this was written).
    assert sum(len(list(documented_commands(path))) for path in DOCS) >= 70
    assert ROOT / "docs" / "ANALYSIS.md" in DOCS


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
                parser.parse_args(argv)
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
#: "DESIGN.md §14", "DESIGN.md §14, §21", "DESIGN.md §16 and §22".
DESIGN_CITATION = re.compile(r"DESIGN\.md((?:\s*(?:,|and|or)?\s*§\s?\d+)+)")

#: Where the sections are cited from.
CITING = [
    ROOT / ".github" / "workflows" / "ci.yml",
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
    headings = set(re.findall(r"^## (\d+)\. ", design, re.MULTILINE))
    cited = {}
    for path in CITING:
        text = path.read_text(encoding="utf-8")
        for match in DESIGN_CITATION.finditer(text):
            for section in re.findall(r"§\s?(\d+)", match.group(1)):
                cited.setdefault(section, str(path.relative_to(ROOT)))
    # 14 distinct sections (§9-§22) when this was written.
    assert len(cited) >= 14
    dangling = {
        section: path for section, path in cited.items()
        if section not in headings
    }
    assert not dangling, f"cited but no '## N.' heading: {dangling}"
