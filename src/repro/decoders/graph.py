"""Decoding (matching) graph construction from a detector error model.

Nodes are the detectors of one basis; a virtual *boundary* node absorbs
single-detector mechanisms.  Edge weights are the usual log-likelihood
ratios ``ln((1−p)/p)`` so that minimum-weight matching maximizes the
likelihood of the correction.

Mechanisms flipping more than two detectors (e.g. ancilla hook faults whose
propagated data errors fire checks in later rounds) are *decomposed* into
chains of known two-detector edges, mirroring what stim/pymatching do.

:meth:`MatchingGraph.from_dem` builds the edges from the DEM's projected
arrays: one- and two-detector rows are grouped by edge with one stable
sort and merged by :meth:`MatchingGraph.add_edge`'s rule, so one
:class:`DecodingEdge` is made per edge rather than one ``add_edge`` call
per mechanism.  Only the decomposed mechanisms go through ``add_edge``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dem.model import (
    DetectorErrorModel,
    FaultMechanism,
    group_ends,
    group_starts,
    xor_scan,
)

__all__ = ["DecodingEdge", "MatchingGraph"]

_MIN_P = 1e-15
_MAX_P = 0.5 - 1e-12


def probability_to_weight(p: float) -> float:
    """Log-likelihood weight of an error mechanism with probability p."""
    p = min(max(p, _MIN_P), _MAX_P)
    return math.log((1.0 - p) / p)


def _xor_probability(a: float, b: float) -> float:
    return a + b - 2.0 * a * b


def _observable_masks(observables: np.ndarray) -> np.ndarray:
    """The int64 bitmask of each right-padded (-1) observable index row."""
    if observables.size and int(observables.max()) > 62:
        raise ValueError("at most 63 observables per basis fit an int64 edge mask")
    bits = np.zeros(observables.shape, dtype=np.int64)
    np.left_shift(np.int64(1), observables, out=bits, where=observables >= 0)
    return np.bitwise_or.reduce(bits, axis=1)


@dataclass
class DecodingEdge:
    """An edge of the matching graph.

    ``v == boundary`` (the node index equal to ``num_detectors``) marks a
    boundary edge.  ``observables`` is a bitmask over the basis's logical
    observables flipped when this edge is part of the correction.

    ``weight`` is cached: it is read O(edges) times during decoder
    construction (e.g. the MWPM CSR build reads it twice per edge), and
    XOR-merges of parallel edges write ``probability``, which invalidates
    the cache.
    """

    u: int
    v: int
    probability: float
    observables: int = 0

    def __setattr__(self, name: str, value) -> None:
        if name == "probability":
            object.__setattr__(self, "_weight", None)
        object.__setattr__(self, name, value)

    @property
    def weight(self) -> float:
        if self._weight is None:
            self._weight = probability_to_weight(self.probability)
        return self._weight


class MatchingGraph:
    """Matching graph over the detectors of one basis."""

    def __init__(self, num_detectors: int, basis: str):
        self.num_detectors = num_detectors
        self.basis = basis
        self.boundary = num_detectors
        self.edges: list[DecodingEdge] = []
        self._edge_index: dict[tuple[int, int], int] = {}
        #: probability of logical errors invisible to the decoder
        self.undetectable_probability: float = 0.0
        #: mechanisms that had to be decomposed (diagnostics)
        self.decomposed_mechanisms: int = 0
        self.detector_coords: list[tuple[float, ...]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dem(cls, dem: DetectorErrorModel, basis: str) -> "MatchingGraph":
        """The basis's matching graph, built from the projected DEM arrays.

        Equivalent to calling :meth:`add_edge` once per one- or
        two-detector mechanism in projection order: mechanisms on the
        same detector pair merge into one edge, in that order, by
        :meth:`add_edge`'s rule.  Observable-only mechanisms fold into
        ``undetectable_probability``; larger ones are decomposed last.
        """
        probability, detectors, observables = dem.projected_arrays(basis)
        kept = dem.basis_detectors(basis)
        graph = cls(len(kept), basis)
        graph.detector_coords = [dem.detector_coords[i] for i in kept]
        width = np.count_nonzero(detectors >= 0, axis=1)
        for p in probability[width == 0].tolist():  # observable-only
            graph.undetectable_probability = _xor_probability(
                graph.undetectable_probability, p
            )

        # Group the one- and two-detector rows by edge, each group in
        # projection order; add_edge would list the edges in order of
        # their first rows.
        rows = np.flatnonzero((width == 1) | (width == 2))
        head = detectors[rows, :2]  # fewer than two columns if none is wider
        ends = np.full((rows.size, 2), graph.boundary, dtype=np.int64)
        ends[:, : head.shape[1]] = np.where(head >= 0, head, graph.boundary)
        order = np.argsort(ends[:, 0] * (graph.boundary + 1) + ends[:, 1], kind="stable")
        rows, ends = rows[order], ends[order]
        first = group_starts(ends)
        running = xor_scan(probability[rows], first)
        # add_edge's merge rule: a mechanism heavier than the edge so far
        # takes over its observables.
        takes_over = np.zeros(rows.size, dtype=bool)
        takes_over[1:] = probability[rows[1:]] > running[:-1]
        takes_over[first] = True
        owner = np.maximum.reduceat(np.where(takes_over, np.arange(rows.size), 0), first)
        last = group_ends(first, rows.size)
        edge = np.argsort(rows[first])
        first, last, owner = first[edge], last[edge], owner[edge]
        edge_u, edge_v = ends[first].T.tolist()
        graph.edges = [
            DecodingEdge(a, b, p, m)
            for a, b, p, m in zip(
                edge_u,
                edge_v,
                running[last].tolist(),
                _observable_masks(observables[rows[owner]]).tolist(),
            )
        ]
        graph._edge_index = {key: i for i, key in enumerate(zip(edge_u, edge_v))}

        for large in np.flatnonzero(width > 2).tolist():
            graph._decompose(
                FaultMechanism(
                    float(probability[large]),
                    tuple(i for i in detectors[large].tolist() if i >= 0),
                    tuple(j for j in observables[large].tolist() if j >= 0),
                )
            )
        return graph

    def add_edge(self, u: int, v: int, probability: float, observables: int) -> None:
        """Insert or XOR-merge an edge.

        Merging keeps the observable mask of the heavier mechanism (the
        standard pymatching convention for rare conflicting parallel edges).
        """
        if u == v:
            raise ValueError("self-loop edge")
        key = (min(u, v), max(u, v))
        index = self._edge_index.get(key)
        if index is None:
            self._edge_index[key] = len(self.edges)
            self.edges.append(DecodingEdge(key[0], key[1], probability, observables))
            return
        edge = self.edges[index]
        if probability > edge.probability:
            edge.observables = observables
        edge.probability = _xor_probability(edge.probability, probability)

    def _decompose(self, fault: FaultMechanism) -> None:
        """Split a >2-detector mechanism into known edges plus remainder.

        Greedy: repeatedly extract detector pairs that already form an edge;
        remaining singletons become boundary edges.  Each component inherits
        the full mechanism probability (conservative, slightly overweights).
        The observable mask rides on the first extracted component.
        """
        self.decomposed_mechanisms += 1
        remaining = list(fault.detectors)
        obs_mask = 0
        for j in fault.observables:
            obs_mask |= 1 << j
        placed_obs = False
        while remaining:
            pair = None
            for i in range(len(remaining)):
                for j in range(i + 1, len(remaining)):
                    key = (min(remaining[i], remaining[j]), max(remaining[i], remaining[j]))
                    if key in self._edge_index:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair:
                i, j = pair
                u, v = remaining[i], remaining[j]
                remaining = [d for idx, d in enumerate(remaining) if idx not in (i, j)]
            elif len(remaining) >= 2:
                u, v = remaining[0], remaining[1]
                remaining = remaining[2:]
            else:
                u, v = remaining[0], self.boundary
                remaining = []
            self.add_edge(u, v, fault.probability, 0 if placed_obs else obs_mask)
            placed_obs = True

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def neighbors(self) -> dict[int, list[int]]:
        """Adjacency: node -> incident edge indices (boundary included)."""
        adj: dict[int, list[int]] = {i: [] for i in range(self.num_detectors + 1)}
        for index, edge in enumerate(self.edges):
            adj[edge.u].append(index)
            adj[edge.v].append(index)
        return adj

    def edge_between(self, u: int, v: int) -> DecodingEdge | None:
        index = self._edge_index.get((min(u, v), max(u, v)))
        return None if index is None else self.edges[index]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (
            f"MatchingGraph(basis={self.basis}, detectors={self.num_detectors},"
            f" edges={self.num_edges})"
        )

