"""Minimum-weight perfect matching decoder (the paper's §II-E decoder).

Distances between all detector pairs are precomputed once, in
``__init__``, with Dijkstra (scipy, C speed); per shot, the detection
events form a small complete graph — each event also gets a private
virtual boundary partner — which is matched with networkx's blossom
implementation.

Logical-flip prediction uses *observable potentials*: a function M over
bulk nodes with ``M[u] ^ M[v] =`` the observable parity of any bulk path
u→v.  Such potentials exist exactly when every cycle of the bulk graph
crosses the logical membrane an even number of times, which holds for
surface-code decoding graphs; the constructor verifies the property
on every edge and refuses to continue if it fails, so the homological
shortcut can never silently give wrong answers.  Boundary matches use
exact predecessor-walked paths instead (the boundary node merges the two
sides and would break the potential argument).

The per-shot graph build is vectorized: bulk and through-boundary
distances for all event pairs come from two table gathers, each edge
family (event↔boundary stubs, bulk candidates, the zero-weight boundary
clique) is inserted with a single ``add_weighted_edges_from`` call, and
single-event shots skip matching entirely.  MWPM's ladder
(:meth:`MWPMDecoder._decode_uniques`) serves the ``weight1`` and
``weight2`` tiers of ``decode_batch`` analytically from the same tables
— provably the blossom outcome for those weights (one event: the lone
augmenting structure is its boundary stub; two events: blossom compares
exactly ``bulk`` vs ``through-boundary``, and the bulk candidate edge is
only present when strictly cheaper, mirroring the graph construction
here) — and sends heavier syndromes through blossom (``full``).  MWPM
is the only decoder with such rules.
"""

from __future__ import annotations

import numpy as np
import networkx as nx

from repro.decoders.batch import SyndromeDecoder
from repro.decoders.graph import MatchingGraph

__all__ = ["MWPMDecoder"]


class MWPMDecoder(SyndromeDecoder):
    """Exact minimum-weight perfect matching on the decoding graph.

    ``_bulk_dist[u, v]`` is the minimum log-likelihood weight of a bulk
    path (boundary excluded) between detectors u and v;
    ``_boundary_dist[u]`` the weight of u's cheapest path to the virtual
    boundary node, and ``_boundary_obs[u]`` the observable parity picked
    up along that exact path (predecessor-walked, so multi-boundary
    graphs stay correct).  ``_potentials`` are the observable potentials
    of the module docstring; building them raises ``ValueError`` when the
    graph is not homologically consistent.
    """

    def __init__(self, graph: MatchingGraph):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        super().__init__(graph)
        n = graph.num_detectors
        u = np.array([edge.u for edge in graph.edges], dtype=np.intp)
        v = np.array([edge.v for edge in graph.edges], dtype=np.intp)
        weights = np.array([edge.weight for edge in graph.edges], dtype=float)
        full = csr_matrix(
            (np.concatenate([weights, weights]),
             (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n + 1, n + 1),
        )
        # Dense all-pairs bulk distances (n is at most a few thousand);
        # the boundary is node n, so the bulk graph is full's top-left block.
        self._bulk_dist = dijkstra(full[:n, :n], directed=False)
        # Verify homological consistency before the boundary pass:
        # potentials are the only shortcut decoding takes, so fail loudly.
        self._potentials = _observable_potentials(graph)
        self._boundary_dist, predecessors = dijkstra(
            full, directed=False, indices=graph.boundary, return_predecessors=True
        )
        self._boundary_obs = _boundary_observables(graph, predecessors)

    def _decode_uniques(self, dets: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
        """MWPM's ladder: analytic rules for one and two events, blossom
        (the base per-unique loop) for heavier syndromes."""
        weights = dets.sum(axis=1, dtype=np.int64)
        predictions = np.zeros(len(dets), dtype=np.int64)
        # np.nonzero is row-major, so each row gives its fired columns in
        # ascending order.
        one = np.flatnonzero(weights == 1)
        # One event must match its boundary stub: the nearest-boundary
        # observable mask from the Dijkstra pass is the exact answer.
        predictions[one] = self._boundary_obs[np.nonzero(dets[one])[1]]
        two = np.flatnonzero(weights == 2)
        # Two events: blossom picks the cheaper of {u−v through the bulk}
        # and {u−boundary, v−boundary}; the bulk candidate participates
        # only when strictly cheaper (mirroring the decode() construction,
        # so ties break identically).
        u, v = np.nonzero(dets[two])[1].reshape(-1, 2).T
        predictions[two] = np.where(
            self._bulk_dist[u, v] < self._boundary_dist[u] + self._boundary_dist[v],
            self._potentials[u] ^ self._potentials[v],
            self._boundary_obs[u] ^ self._boundary_obs[v],
        )
        heavy = np.flatnonzero(weights > 2)
        predictions[heavy], tiers = super()._decode_uniques(dets[heavy])
        return predictions, {"weight1": one.size, "weight2": two.size, **tiers}

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


def _boundary_observables(graph: MatchingGraph, predecessors: np.ndarray) -> np.ndarray:
    """Observable parity of each node's shortest path to the boundary."""
    n = graph.num_detectors
    masks = [0] * (n + 1)
    resolved = [False] * (n + 1)
    resolved[graph.boundary] = True
    for start in range(n):
        chain = []
        node = start
        unreachable = False
        while not resolved[node]:
            chain.append(node)
            nxt = int(predecessors[node])
            if nxt < 0:  # no path to the boundary exists
                unreachable = True
                break
            node = nxt
        if unreachable:
            for member in chain:
                masks[member] = 0
                resolved[member] = True
            continue
        acc = masks[node]
        prev = node
        for member in reversed(chain):
            edge = graph.edge_between(member, prev)
            if edge is None:  # pragma: no cover - predecessor implies an edge
                raise KeyError((member, prev))
            acc ^= edge.observables
            masks[member] = acc
            resolved[member] = True
            prev = member
    return np.array(masks, dtype=np.int64)


def _observable_potentials(graph: MatchingGraph) -> np.ndarray:
    """Per-node observable potentials over the bulk graph (BFS labels).

    Verifies consistency on every bulk edge: obs(u,v) == M[u]^M[v].
    """
    n = graph.num_detectors
    potentials = [0] * n
    seen = [False] * n
    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for edge in graph.edges:
        if edge.v == graph.boundary:
            continue
        adjacency[edge.u].append((edge.v, edge.observables))
        adjacency[edge.v].append((edge.u, edge.observables))
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v, obs in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    potentials[v] = potentials[u] ^ obs
                    stack.append(v)
    for edge in graph.edges:
        if edge.v == graph.boundary:
            continue
        if potentials[edge.u] ^ potentials[edge.v] != edge.observables:
            raise ValueError(
                "decoding graph is not homologically consistent; "
                "observable potentials do not exist"
            )
    return np.array(potentials, dtype=np.int64)
