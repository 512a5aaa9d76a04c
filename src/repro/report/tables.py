"""ASCII rendering used by the benchmark harness and examples."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["ascii_table", "format_series"]


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 1e-2 or abs(value) >= 1e4:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def ascii_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str | None = None
) -> str:
    """A simple aligned ASCII table."""
    text_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    rule = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(rule)
    for row in text_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    xlabel: str = "x",
    title: str | None = None,
    marks: Mapping[str, Sequence] | None = None,
) -> str:
    """Columnar x-vs-series listing (one figure panel as text).

    A cell whose entry in ``marks`` (same keys and lengths as ``series``)
    is truthy gets a trailing ``*``.
    """
    headers = [xlabel] + list(series)
    rows = []
    for i, x in enumerate(xs):
        cells = []
        for label in series:
            cell = series[label][i]
            if marks is not None and marks[label][i]:
                cell = _cell(cell) + "*"
            cells.append(cell)
        rows.append([x] + cells)
    return ascii_table(headers, rows, title=title)
