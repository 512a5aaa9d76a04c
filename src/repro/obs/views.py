"""Derived views over registry snapshots: the ``repro metrics`` rendering."""

from __future__ import annotations

from typing import Mapping

__all__ = ["format_snapshot"]

_LABEL_SEP = "\x1f"


def _rows(entry: Mapping) -> list[tuple[str, float]]:
    labels = entry.get("labels", [])
    if entry["kind"] == "histogram":
        rows = []
        for key, cell in sorted(entry["hist"].items()):
            label = _label_text(labels, key)
            rows.append((f"{label}count" if label else "count", cell[-1]))
            rows.append((f"{label}sum" if label else "sum", cell[-2]))
        return rows
    return [
        (_label_text(labels, key).rstrip() or "", value)
        for key, value in sorted(entry["values"].items())
    ]


def _label_text(labels, key: str) -> str:
    if not labels:
        return ""
    values = key.split(_LABEL_SEP)
    return "{%s} " % ",".join(f"{n}={v}" for n, v in zip(labels, values))


def format_snapshot(snapshot: Mapping, title: str = "") -> str:
    """Human-readable rendering for ``repro metrics``."""
    lines = [title] if title else []
    if not snapshot:
        lines.append("(no instruments recorded)")
        return "\n".join(lines)
    for name, entry in sorted(snapshot.items()):
        lines.append(f"{name} ({entry['kind']}): {entry.get('help', '')}")
        for label, value in _rows(entry):
            shown = int(value) if value == int(value) else round(value, 6)
            lines.append(f"  {label + ' ' if label else ''}{shown}")
    return "\n".join(lines)
