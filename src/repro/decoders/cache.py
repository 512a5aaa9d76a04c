"""The build memo of multi-circuit campaigns.

:class:`BuildCache` memoizes expensive per-circuit builds
(detector-error-model extraction, matching-graph and decoder
construction, circuit lowering) under caller-chosen shape keys for
multi-circuit campaigns, and counts hits/misses so sweeps can assert
their sharing actually happened (the CI smoke job gates on
``hits > 0``).
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

__all__ = ["BuildCache"]

T = TypeVar("T")


class BuildCache:
    """A keyed memo of expensive builds, with hit/miss accounting.

    It never evicts: campaign working sets are bounded by the number of
    *distinct circuit shapes* (typically a handful), not by shots or
    qubits.
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
