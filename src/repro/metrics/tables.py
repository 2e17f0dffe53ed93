"""Plain-text table rendering for experiment reports.

The experiment modules print the same rows/series the paper plots; these
helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a monospace table with a header row and aligned columns."""
    columns = len(headers)
    normalized_rows = []
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells but the table has {columns} columns: {row!r}"
            )
        normalized_rows.append([_format_cell(cell) for cell in row])
    header_cells = [str(header) for header in headers]
    widths = [
        max(len(header_cells[i]), *(len(row[i]) for row in normalized_rows))
        if normalized_rows
        else len(header_cells[i])
        for i in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(header_cells)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in normalized_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)
