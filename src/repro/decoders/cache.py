"""Decode-path caches: the cross-batch syndrome LRU and the build memo.

:class:`PackedLRU` is the ``cached`` tier of the batched decode
dispatcher — a bounded least-recently-used map from packed syndrome
bytes to full-decoder predictions.  Two properties matter at its call
rate (every heavy unique syndrome of every chunk):

* **Bytes-key fast path.**  Keys are slices of one ``tobytes()`` call
  over the whole block of packed unique rows — a single buffer copy and
  ``n`` cheap bytes slices — instead of one numpy ``tobytes()`` round
  trip per row per lookup, and the same key objects are reused for the
  insert after the miss rows are decoded, so a row is serialized exactly
  once per ``decode_batch`` call.
* **Hit/miss counters.**  ``hits``/``misses`` accumulate across the
  cache's lifetime; each ``decode_batch`` call reports its deltas as
  ``lru_hits``/``lru_misses`` in the decoder's ``last_batch_stats`` and
  the ``repro_decode_lru_*`` registry counters, next to tier occupancy.

:class:`BuildCache` memoizes expensive per-circuit builds
(detector-error-model extraction, matching-graph construction,
``DistanceTables``, circuit lowering) under caller-chosen shape keys for
multi-circuit campaigns, and counts hits/misses so sweeps can assert
their sharing actually happened (the CI smoke job gates on
``hits > 0``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

import numpy as np

__all__ = ["BuildCache", "PackedLRU"]

T = TypeVar("T")


class PackedLRU:
    """Bounded LRU map ``packed syndrome bytes -> int64 prediction``.

    ``capacity`` bounds *entries*, not bytes (a d=7 entry is ~60 bytes
    of key plus an int), is mutable at any time, and is enforced after
    every insert batch; eviction is strict LRU — lookups refresh
    recency, inserts land most-recent.  ``capacity <= 0`` disables
    insertion entirely.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict[bytes, int] = OrderedDict()
        #: lifetime lookup counters (survive :meth:`clear`; they
        #: describe the process, not the current contents)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every entry (the counters survive)."""
        self._data.clear()

    # ------------------------------------------------------------------
    def keys_for(self, rows: np.ndarray) -> list[bytes]:
        """Per-row bytes keys for a 2-D block of packed syndrome rows."""
        n, width = rows.shape
        if width == 0:
            return [b""] * n
        blob = np.ascontiguousarray(rows).tobytes()
        return [blob[i * width : (i + 1) * width] for i in range(n)]

    def get_many(self, keys: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
        """Look up many keys at once.

        Returns ``(hit_mask, values)``: a bool array marking the keys
        that were present (recency refreshed) and an int64 array with
        the cached prediction at hit positions (0 elsewhere).
        """
        n = len(keys)
        hit = np.zeros(n, dtype=bool)
        values = np.zeros(n, dtype=np.int64)
        data = self._data
        for i, key in enumerate(keys):
            cached = data.get(key)
            if cached is not None:
                data.move_to_end(key)
                hit[i] = True
                values[i] = cached
        nhits = int(np.count_nonzero(hit))
        self.hits += nhits
        self.misses += n - nhits
        return hit, values

    def put_many(self, keys: list[bytes], values: np.ndarray) -> None:
        """Insert many entries, then evict down to capacity."""
        if self.capacity <= 0:
            return
        data = self._data
        for key, value in zip(keys, values):
            data[key] = int(value)
        while len(data) > self.capacity:
            data.popitem(last=False)


class BuildCache:
    """A keyed memo of expensive builds, with hit/miss accounting.

    Unlike an LRU this never evicts: campaign working sets are bounded
    by the number of *distinct circuit shapes* (typically a handful),
    not by shots or qubits.
    """

    def __init__(self, name: str = "cache"):
        self.name = name
        self._entries: dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, build: Callable[[], T]) -> T:
        """The cached value for ``key``, calling ``build`` on first use."""
        try:
            entry = self._entries[key]
        except KeyError:
            self.misses += 1
            entry = self._entries[key] = build()
            return entry
        self.hits += 1
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def stats(self) -> dict[str, int]:
        """``{"entries", "hits", "misses"}`` for reports and CI gates."""
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BuildCache({self.name!r}, entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
