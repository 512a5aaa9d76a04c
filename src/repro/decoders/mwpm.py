"""Minimum-weight perfect matching decoder (the paper's §II-E decoder).

Distances between all detector pairs are precomputed with Dijkstra
(scipy, C speed) via the shared :class:`~repro.decoders.graph.DistanceTables`;
per shot, the detection events form a small complete graph — each event
also gets a private virtual boundary partner — which is matched with
networkx's blossom implementation.

Logical-flip prediction uses *observable potentials*: a function M over
bulk nodes with ``M[u] ^ M[v] =`` the observable parity of any bulk path
u→v.  Such potentials exist exactly when every cycle of the bulk graph
crosses the logical membrane an even number of times, which holds for
surface-code decoding graphs; the table constructor verifies the property
on every edge and refuses to continue if it fails, so the homological
shortcut can never silently give wrong answers.  Boundary matches use
exact predecessor-walked paths instead (the boundary node merges the two
sides and would break the potential argument).

The per-shot graph build is vectorized: bulk and through-boundary
distances for all event pairs come from two table gathers, each edge
family (event↔boundary stubs, bulk candidates, the zero-weight boundary
clique) is inserted with a single ``add_weighted_edges_from`` call, and
single-event shots skip matching entirely.  The weight-1/weight-2 tiers of
``decode_batch`` are served analytically from the same tables — provably
the blossom outcome for those weights (one event: the lone augmenting
structure is its boundary stub; two events: blossom compares exactly
``bulk`` vs ``through-boundary``, and the bulk candidate edge is only
present when strictly cheaper, mirroring the graph construction here).
MWPM is the only decoder with such rules.
"""

from __future__ import annotations

import numpy as np
import networkx as nx

from repro.decoders.batch import SyndromeDecoder
from repro.decoders.graph import MatchingGraph

__all__ = ["MWPMDecoder"]


class MWPMDecoder(SyndromeDecoder):
    """Exact minimum-weight perfect matching on the decoding graph."""

    def __init__(self, graph: MatchingGraph):
        super().__init__(graph)
        tables = graph.distance_tables()
        self._bulk_dist = tables.bulk_dist
        self._boundary_dist = tables.boundary_dist
        self._boundary_obs = tables.boundary_obs
        self._potentials = tables.potentials

    # ------------------------------------------------------------------
    # Analytic low-weight fast path (see decoders/batch.py)
    # ------------------------------------------------------------------
    def _decode_weight1_batch(self, cols: np.ndarray) -> np.ndarray:
        # One event must match its boundary stub: the nearest-boundary
        # observable mask from the Dijkstra pass is the exact answer.
        return self._boundary_obs[cols]

    def _decode_weight2_batch(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # Two events: blossom picks the cheaper of {u−v through the bulk}
        # and {u−boundary, v−boundary}; the bulk candidate participates
        # only when strictly cheaper (mirroring the decode() construction,
        # so ties break identically).
        bulk = self._bulk_dist[u, v]
        through = self._boundary_dist[u] + self._boundary_dist[v]
        bulk_pred = self._potentials[u] ^ self._potentials[v]
        boundary_pred = self._boundary_obs[u] ^ self._boundary_obs[v]
        return np.where(bulk < through, bulk_pred, boundary_pred)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, events: list[int]) -> int:
        """Predicted observable-flip mask for the given detection events."""
        if not events:
            return 0
        m = len(events)
        if m == 1:
            return int(self._boundary_obs[events[0]])
        evs = np.asarray(events, dtype=np.intp)
        boundary = self._boundary_dist[evs]
        bulk = self._bulk_dist[np.ix_(evs, evs)]
        through = boundary[:, None] + boundary[None, :]
        iu, ju = np.triu_indices(m, 1)
        use_bulk = bulk[iu, ju] < through[iu, ju]

        matching_graph = nx.Graph()
        matching_graph.add_weighted_edges_from(
            (("e", i), ("b", i), -float(boundary[i])) for i in range(m)
        )
        matching_graph.add_weighted_edges_from(
            (("e", int(i)), ("e", int(j)), -float(bulk[i, j]))
            for i, j in zip(iu[use_bulk], ju[use_bulk])
        )
        # The zero-weight boundary clique lets unmatched stubs pair up; one
        # bulk call instead of the old per-pair Python loop.
        matching_graph.add_weighted_edges_from(
            (("b", int(i)), ("b", int(j)), 0.0) for i, j in zip(iu, ju)
        )
        matching = nx.max_weight_matching(matching_graph, maxcardinality=True)

        prediction = 0
        for a, b in matching:
            if a[0] == "b" and b[0] == "b":
                continue
            if a[0] == "b" or b[0] == "b":
                event = a if a[0] == "e" else b
                prediction ^= int(self._boundary_obs[events[event[1]]])
            else:
                u, v = events[a[1]], events[b[1]]
                prediction ^= int(self._potentials[u] ^ self._potentials[v])
        return prediction
