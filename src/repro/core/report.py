"""Plain-text table and figure-series rendering for the bench harness.

Every benchmark prints its table or figure in the same layout the paper
uses, so paper-vs-measured comparison is a visual diff.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.4g}"
    return str(value)


class TextTable:
    """Aligned monospace table with an optional title."""

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        self.title = title
        self.headers = [str(header) for header in headers]
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_fmt(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        separator = "-+-".join("-" * width for width in widths)
        lines.append(
            " | ".join(header.ljust(width) for header, width in zip(self.headers, widths))
        )
        lines.append(separator)
        for row in self.rows:
            lines.append(
                " | ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())
        print()


def outcome_table(outcome) -> TextTable:
    """Render an :class:`~repro.core.evalapi.EvalOutcome` as a TextTable."""
    table = TextTable(outcome.headers, title=outcome.title)
    for row in outcome.rows:
        table.add_row(*row)
    return table


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A coarse unicode sparkline for timeline sanity checks."""
    if not values:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    top = max(values) or 1.0
    step = max(1, len(values) // width)
    sampled = [values[i] for i in range(0, len(values), step)]
    return "".join(blocks[min(8, int(value / top * 8))] for value in sampled)
