"""Process-local metrics registry: counters, gauges, histograms.

Design constraints (see EXPERIMENTS.md "Observability"):

- **Cheap no-op default.**  The module-level registry is ``None`` until
  :func:`enable` is called.  Call sites guard with ``obs.active()`` or go
  through the module-level :func:`counter`/:func:`gauge`/:func:`histogram`
  helpers, which return a shared no-op instrument when disabled — the
  disabled cost is one global read and one ``is None`` check, and all
  instrumentation sits at block granularity (>= 1024 shots per
  event), so the hot path never sees per-shot overhead.
- **Deterministic merges.**  Histograms use *fixed* bucket edges declared
  in :mod:`repro.obs.catalog`, so merging two snapshots is a plain per-key
  sum and is associative/commutative.  Counters merge by sum; gauges merge
  by ``max`` (last-write-wins would depend on worker scheduling).  This is
  what lets worker processes ship snapshot deltas alongside block results
  and the parent merge them in any arrival order without changing a single
  campaign number.
- **Snapshots are plain JSON.**  ``MetricsRegistry.snapshot()`` returns a
  nested dict of builtin types only, safe to pickle across processes, append
  to a service payload, or write to ``metrics.json``.

These counters are the repo's one account of totals across calls: the
decode tiers, for one, are recorded per ``decode_batch`` call and summed
only here (and, across worker processes, by :func:`merge_snapshots`).
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

from .catalog import CATALOG, InstrumentSpec

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "merge_counts",
    "merge_snapshots",
    "snapshot_delta",
    "summarize_snapshot",
]

_LABEL_SEP = "\x1f"  # joins label values into a flat JSON-able dict key


def merge_counts(into: dict, stats: Mapping) -> dict:
    """Accumulate numeric per-key counts of ``stats`` into ``into``.

    The per-cell sum behind counter snapshot merging.  Missing keys are
    created; ``into`` is returned for chaining.
    """
    for key, value in stats.items():
        into[key] = into.get(key, 0) + value
    return into


class _Instrument:
    """Base: holds per-labelset numeric cells keyed by joined label values."""

    kind = "untyped"

    def __init__(self, spec: InstrumentSpec):
        self.spec = spec
        self._cells: dict[str, float] = {}

    def _key(self, labels: tuple) -> str:
        if len(labels) != len(self.spec.labels):
            raise ValueError(
                f"{self.spec.name}: expected labels {self.spec.labels}, "
                f"got {labels!r}"
            )
        return _LABEL_SEP.join(str(v) for v in labels)


class Counter(_Instrument):
    """Monotonic counter; merges by sum."""

    kind = "counter"

    def inc(self, amount: float = 1, *labels) -> None:
        key = self._key(labels)
        self._cells[key] = self._cells.get(key, 0) + amount


class Gauge(_Instrument):
    """Point-in-time value; merges by max (scrape-order independent)."""

    kind = "gauge"

    def set(self, value: float, *labels) -> None:
        self._cells[self._key(labels)] = value


class Histogram(_Instrument):
    """Fixed-bucket histogram: cumulative-free bucket counts + sum + count.

    Buckets are declared once in the catalog so every process slices the
    same edges and merges are plain sums.  Cells are stored per labelset as
    ``[bucket_counts..., +Inf_count, sum, count]`` flat lists.
    """

    kind = "histogram"

    def __init__(self, spec: InstrumentSpec):
        super().__init__(spec)
        if not spec.buckets:
            raise ValueError(f"{spec.name}: histogram requires bucket edges")
        self.edges = tuple(float(e) for e in spec.buckets)
        self._hcells: dict[str, list[float]] = {}
        del self._cells  # histograms use _hcells; guard against misuse

    def observe(self, value: float, *labels) -> None:
        key = self._key(labels)
        cell = self._hcells.get(key)
        if cell is None:
            cell = self._hcells[key] = [0.0] * (len(self.edges) + 3)
        cell[bisect_left(self.edges, value)] += 1
        cell[-2] += value
        cell[-1] += 1


class _Noop:
    """Shared do-nothing instrument returned when the registry is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1, *labels) -> None:
        pass

    def set(self, value: float, *labels) -> None:
        pass

    def observe(self, value: float, *labels) -> None:
        pass


_NOOP = _Noop()


class MetricsRegistry:
    """Catalog-backed instrument registry with JSON snapshot/merge."""

    def __init__(self, specs: Iterable[InstrumentSpec] = CATALOG):
        self._specs = {spec.name: spec for spec in specs}
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: str) -> _Instrument:
        inst = self._instruments.get(name)
        if inst is not None:
            return inst
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(f"instrument {name!r} is not in the obs catalog")
        if spec.kind != kind:
            raise TypeError(f"{name} is a {spec.kind}, requested as {kind}")
        cls = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}[kind]
        with self._lock:
            return self._instruments.setdefault(name, cls(spec))

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, "gauge")  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, "histogram")  # type: ignore[return-value]

    def snapshot(self) -> dict:
        """Plain-JSON state: {name: {kind, help, labels, values|hist}}."""
        out: dict[str, dict] = {}
        for name, inst in sorted(self._instruments.items()):
            entry: dict = {
                "kind": inst.kind,
                "help": inst.spec.help,
                "labels": list(inst.spec.labels),
            }
            if isinstance(inst, Histogram):
                entry["edges"] = list(inst.edges)
                entry["hist"] = {k: list(v) for k, v in inst._hcells.items()}
            else:
                entry["values"] = dict(inst._cells)
            out[name] = entry
        return out

    def merge_snapshot(self, snap: Mapping) -> None:
        """Fold a snapshot (e.g. a worker delta) into this registry.

        Counters and histogram cells merge by sum, gauges by max — both
        order-invariant, so fan-out results may arrive in any order.
        """
        for name, entry in snap.items():
            kind = entry["kind"]
            inst = self._get(name, kind)
            if kind == "histogram":
                for key, cell in entry["hist"].items():
                    mine = inst._hcells.get(key)  # type: ignore[union-attr]
                    if mine is None:
                        inst._hcells[key] = list(cell)  # type: ignore[union-attr]
                    else:
                        for i, v in enumerate(cell):
                            mine[i] += v
            elif kind == "gauge":
                for key, value in entry["values"].items():
                    mine = inst._cells.get(key)
                    if mine is None or value > mine:
                        inst._cells[key] = value
            else:
                merge_counts(inst._cells, entry["values"])


def merge_snapshots(*snaps: Mapping) -> dict:
    """Merge snapshots into a fresh one (sum counters/hists, max gauges)."""
    reg = MetricsRegistry()
    for snap in snaps:
        reg.merge_snapshot(snap)
    return reg.snapshot()


def snapshot_delta(after: Mapping, before: Mapping) -> dict:
    """after - before, per cell; used by workers to ship per-block deltas.

    Gauges pass through from ``after`` (a gauge is a level, not a flow).
    Cells that did not change are dropped so deltas stay small.
    """
    delta: dict[str, dict] = {}
    for name, entry in after.items():
        prev = before.get(name)
        if entry["kind"] == "histogram":
            cells = {}
            for key, cell in entry["hist"].items():
                base = prev["hist"].get(key) if prev else None
                if base is None:
                    if any(cell):
                        cells[key] = list(cell)
                else:
                    diff = [a - b for a, b in zip(cell, base)]
                    if any(diff):
                        cells[key] = diff
            if cells:
                delta[name] = {**entry, "hist": cells}
        elif entry["kind"] == "gauge":
            if entry["values"]:
                delta[name] = {**entry, "values": dict(entry["values"])}
        else:
            cells = {}
            for key, value in entry["values"].items():
                base = prev["values"].get(key, 0) if prev else 0
                if value != base:
                    cells[key] = value - base
            if cells:
                delta[name] = {**entry, "values": cells}
    return delta


def summarize_snapshot(snap: Mapping) -> dict:
    """Compact {name: total} rollup (counters summed over labels, gauge max,
    histogram count) — the ``metrics`` field on the service status payload."""
    out: dict[str, float] = {}
    for name, entry in sorted(snap.items()):
        if entry["kind"] == "histogram":
            total = sum(cell[-1] for cell in entry["hist"].values())
        elif entry["kind"] == "gauge":
            total = max(entry["values"].values(), default=0)
        else:
            total = sum(entry["values"].values())
        out[name] = total
    return out


# --- module-level active registry -------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def enable() -> MetricsRegistry:
    """Turn metrics on (idempotent); returns the active registry."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> MetricsRegistry | None:
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def counter(name: str):
    reg = _ACTIVE
    return _NOOP if reg is None else reg.counter(name)


def gauge(name: str):
    reg = _ACTIVE
    return _NOOP if reg is None else reg.gauge(name)


def histogram(name: str):
    reg = _ACTIVE
    return _NOOP if reg is None else reg.histogram(name)


if os.environ.get("REPRO_OBS") == "1":  # opt-in for spawned subprocesses
    enable()
