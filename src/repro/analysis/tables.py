"""Plain-text table rendering for benchmark output.

The benchmark harness prints the paper's tables and figure series as
aligned text so runs are easy to eyeball and diff; no plotting stack is
required offline.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Render rows as an aligned text table.

    Cells are stringified with ``str``; floats should be pre-formatted
    by the caller for stable precision.
    """
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
