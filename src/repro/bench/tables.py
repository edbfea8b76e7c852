"""Plain-text table rendering for bench output."""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Sequence, Tuple, Union

#: A column of :func:`dict_table`: its header, and the row key (or
#: function of the row) that fills it.
Column = Tuple[str, Union[str, Callable[[Mapping], object]]]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [
        [_cell(value) for value in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def dict_table(
    title: str, columns: Sequence[Column], rows: Iterable[Mapping]
) -> str:
    """An aligned table over dict rows."""
    return format_table(
        [header for header, _ in columns],
        [
            [get(row) if callable(get) else row[get] for _, get in columns]
            for row in rows
        ],
        title=title,
    )


def failing(checks: Iterable[Tuple[object, str]]) -> List[str]:
    """The messages of the ``(holds, message)`` checks that do not hold:
    the shape of every bench's ``verdicts``."""
    return [message for holds, message in checks if not holds]


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def ms(value_us, digits: int = 1) -> object:
    """A microsecond reading as a table cell in milliseconds."""
    return "-" if value_us is None else round(value_us / 1000.0, digits)
