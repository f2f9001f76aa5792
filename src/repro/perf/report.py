"""Paper-style ASCII table rendering.

The experiment drivers print their results in the same row/column
layout as the paper's tables, so a side-by-side comparison with the
published numbers is a visual diff.  No external dependencies — plain
monospace tables.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["format_table"]


def _cell(value: object, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    precision: int = 2,
) -> str:
    """Render a monospace table with a ruled header.

    Args:
        headers: column titles.
        rows: row cells (numbers formatted to ``precision``).
        title: optional caption printed above the table.
    """
    if not headers:
        raise ConfigurationError("need at least one column")
    str_rows = [[_cell(v, precision) for v in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells for {len(headers)} columns"
            )
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows))
        if str_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

