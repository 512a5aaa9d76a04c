"""Object-at-a-time cold path: projection, matching graph, union-find arrays.

The test oracle of the array-native cold path.  ``DetectorErrorModel``
projects its grouped arrays with one ``lexsort``, ``MatchingGraph.from_dem``
groups the projected rows into edges, and ``UnionFindDecoder.__init__``
builds its CSR adjacency with one stable ``argsort``.  The functions here
do the same jobs the way ``src`` did before: one ``FaultMechanism`` at a
time through a dict, one ``add_edge`` call per mechanism, and Python loops
over the edges.  Every result must agree exactly: values, order and dtypes.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.graph import MatchingGraph, _xor_probability
from repro.decoders.unionfind import _MAX_UNITS
from repro.dem import DetectorErrorModel, FaultMechanism

__all__ = ["oracle_graph", "oracle_projected", "oracle_unionfind_arrays"]


def oracle_projected(dem: DetectorErrorModel, basis: str) -> list[FaultMechanism]:
    """``dem.faults`` restricted to one basis, merged through a dict."""
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    det_map = {}
    for i, b in enumerate(dem.detector_basis):
        if b == basis:
            det_map[i] = len(det_map)
    obs_map = {}
    for j, b in enumerate(dem.observable_basis):
        if b == basis:
            obs_map[j] = len(obs_map)

    merged: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    for fault in dem.faults:
        detectors = tuple(det_map[i] for i in fault.detectors if i in det_map)
        observables = tuple(obs_map[j] for j in fault.observables if j in obs_map)
        if not detectors and not observables:
            continue
        key = (detectors, observables)
        existing = merged.get(key, 0.0)
        p = fault.probability
        merged[key] = existing + p - 2.0 * existing * p
    return [
        FaultMechanism(p, detectors, observables)
        for (detectors, observables), p in sorted(merged.items())
    ]


def oracle_graph(dem: DetectorErrorModel, basis: str) -> MatchingGraph:
    """The matching graph built with one ``add_edge`` call per mechanism."""
    faults = oracle_projected(dem, basis)
    num = len(dem.basis_detectors(basis))
    graph = MatchingGraph(num, basis)
    graph.detector_coords = [
        dem.detector_coords[i] for i in dem.basis_detectors(basis)
    ]
    deferred: list[FaultMechanism] = []
    for fault in faults:
        obs_mask = 0
        for j in fault.observables:
            obs_mask |= 1 << j
        if len(fault.detectors) == 0:
            if obs_mask:
                graph.undetectable_probability = _xor_probability(
                    graph.undetectable_probability, fault.probability
                )
        elif len(fault.detectors) == 1:
            graph.add_edge(
                fault.detectors[0], graph.boundary, fault.probability, obs_mask
            )
        elif len(fault.detectors) == 2:
            graph.add_edge(*fault.detectors, fault.probability, obs_mask)
        else:
            deferred.append(fault)
    for fault in deferred:
        graph._decompose(fault)
    return graph


def oracle_unionfind_arrays(graph: MatchingGraph, resolution: int = 16) -> dict:
    """Every array and list mirror ``UnionFindDecoder`` lowers the graph
    into, built with per-edge loops: name -> value."""
    n = graph.num_detectors
    num_edges = graph.num_edges

    weights = [e.weight for e in graph.edges if e.weight > 0]
    unit = min(weights) / float(resolution) if weights else 1.0
    lengths = [
        max(1, min(_MAX_UNITS, round(e.weight / unit))) for e in graph.edges
    ]

    edge_u = np.fromiter((e.u for e in graph.edges), np.int32, count=num_edges)
    edge_v = np.fromiter((e.v for e in graph.edges), np.int32, count=num_edges)
    edge_obs = np.fromiter(
        (e.observables for e in graph.edges), np.int64, count=num_edges
    )
    lengths = np.asarray(lengths, dtype=np.int32)
    counts = np.zeros(n + 2, dtype=np.int32)
    for e in graph.edges:
        counts[e.u + 1] += 1
        counts[e.v + 1] += 1
    adj_indptr = np.cumsum(counts, dtype=np.int32)
    adj_edges = np.zeros(adj_indptr[-1], dtype=np.int32)
    cursor = adj_indptr[:-1].copy()
    for idx, e in enumerate(graph.edges):
        adj_edges[cursor[e.u]] = idx
        cursor[e.u] += 1
        adj_edges[cursor[e.v]] = idx
        cursor[e.v] += 1

    adj_other = np.zeros_like(adj_edges)
    for i in range(n + 1):
        lo, hi = adj_indptr[i], adj_indptr[i + 1]
        for j in range(lo, hi):
            e = adj_edges[j]
            adj_other[j] = edge_v[e] if edge_u[e] == i else edge_u[e]

    return {
        "edge_u": edge_u,
        "edge_v": edge_v,
        "edge_obs": edge_obs,
        "lengths": lengths,
        "adj_indptr": adj_indptr,
        "adj_edges": adj_edges,
        "adj_other": adj_other,
        "_eu": edge_u.tolist(),
        "_ev": edge_v.tolist(),
        "_eobs": edge_obs.tolist(),
        "_len": lengths.tolist(),
        "_adj": [
            list(
                zip(
                    adj_edges[adj_indptr[i] : adj_indptr[i + 1]].tolist(),
                    adj_other[adj_indptr[i] : adj_indptr[i + 1]].tolist(),
                )
            )
            for i in range(n + 1)
        ],
    }
