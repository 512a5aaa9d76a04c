"""Decoder-graph validation.

The matching graph and the flat-array union-find decoder are the
trusted core of every logical-error-rate estimate: an unreachable
detector silently mis-decodes its syndromes, a non-positive weight
breaks Dijkstra and cluster growth, and a skew between the union-find's
flat arrays and its interpreted-Python list mirrors corrupts every
decode that touches the skewed entry.  This pass checks all of it
statically:

* **GRF001** — a detector node cannot reach the virtual boundary node
  (isolated detectors included), so its syndromes cannot be matched off;
* **GRF002** — an edge probability outside ``(0, 0.5)`` or a
  non-positive log-likelihood weight;
* **GRF003** — the union-find decoder's flat arrays, CSR adjacency or
  plain-list mirrors disagree with the graph they were built from, or
  its batched lockstep kernel copies (rather than shares) the edge
  arrays or the CSR adjacency, or lays the CSR out wrongly in its slot
  tables or sentinel length;
* **GRF004** — a DEM error mechanism is not covered by the graph (a
  fault's detector has no incident edge, or an observable-only fault is
  missing from ``undetectable_probability``).
"""

from __future__ import annotations

from collections import deque

from repro.analyze.diagnostics import Diagnostic
from repro.decoders.graph import MatchingGraph
from repro.decoders.unionfind import UnionFindDecoder
from repro.dem.model import DetectorErrorModel

__all__ = ["lint_graph", "lint_unionfind"]

_MAX_REPORTS = 5  # cap identical-code findings per check; then summarize


def _add_capped(found: list, diag: Diagnostic, extra: list) -> None:
    if len([d for d in found if d.code == diag.code]) < _MAX_REPORTS:
        found.append(diag)
    else:
        extra.append(diag)


def lint_graph(
    graph: MatchingGraph,
    dem: DetectorErrorModel | None = None,
    basis: str | None = None,
    decoder: UnionFindDecoder | None = None,
    location: str = "graph",
) -> list[Diagnostic]:
    """Validate a matching graph (and optionally its DEM and decoder)."""
    diagnostics: list[Diagnostic] = []
    overflow: list[Diagnostic] = []

    def add(code: str, where: str, message: str) -> None:
        _add_capped(
            diagnostics,
            Diagnostic(code, "error", f"{location}:{where}", message),
            overflow,
        )

    # --- GRF001: boundary reachability -----------------------------
    n = graph.num_detectors
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]
    for edge in graph.edges:
        adjacency[edge.u].append(edge.v)
        adjacency[edge.v].append(edge.u)
    reached = [False] * (n + 1)
    reached[graph.boundary] = True
    queue = deque([graph.boundary])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not reached[v]:
                reached[v] = True
                queue.append(v)
    for det in range(n):
        if not reached[det]:
            kind = "isolated" if not adjacency[det] else "stranded"
            add(
                "GRF001",
                f"detector{det}",
                f"{kind} detector {det} cannot reach the boundary "
                f"({len(adjacency[det])} incident edge(s))",
            )

    # --- GRF002: probabilities and weights --------------------------
    for index, edge in enumerate(graph.edges):
        if not (0.0 < edge.probability < 0.5):
            add(
                "GRF002",
                f"edge{index}",
                f"edge {index} ({edge.u}-{edge.v}) has probability "
                f"{edge.probability!r} outside (0, 0.5)",
            )
        elif edge.weight <= 0.0:
            add(
                "GRF002",
                f"edge{index}",
                f"edge {index} ({edge.u}-{edge.v}) has non-positive "
                f"weight {edge.weight!r}",
            )

    # --- GRF004: DEM coverage ---------------------------------------
    if dem is not None and basis is not None:
        degree = [len(a) for a in adjacency]
        for fidx, fault in enumerate(dem.projected(basis)):
            if not fault.detectors:
                if fault.observables and graph.undetectable_probability <= 0.0:
                    add(
                        "GRF004",
                        f"fault{fidx}",
                        f"observable-only fault #{fidx} (p={fault.probability:g})"
                        " is not reflected in undetectable_probability",
                    )
                continue
            uncovered = [d for d in fault.detectors if degree[d] == 0]
            if uncovered:
                add(
                    "GRF004",
                    f"fault{fidx}",
                    f"fault #{fidx} flips detector(s) {uncovered} that have "
                    "no incident graph edge",
                )

    # --- GRF003: union-find mirror consistency ----------------------
    if decoder is not None:
        diagnostics.extend(
            lint_unionfind(decoder, graph, location=location, _overflow=overflow)
        )

    if overflow:
        by_code: dict[str, int] = {}
        for d in overflow:
            by_code[d.code] = by_code.get(d.code, 0) + 1
        for code, count in sorted(by_code.items()):
            diagnostics.append(
                Diagnostic(
                    code,
                    "error",
                    f"{location}:summary",
                    f"...and {count} more {code} finding(s) suppressed",
                )
            )
    return diagnostics


def lint_unionfind(
    decoder: UnionFindDecoder,
    graph: MatchingGraph,
    location: str = "graph",
    _overflow: list | None = None,
) -> list[Diagnostic]:
    """Check the union-find's flat arrays / CSR / list mirrors vs the graph."""
    diagnostics: list[Diagnostic] = []
    overflow = [] if _overflow is None else _overflow

    def add(where: str, message: str) -> None:
        _add_capped(
            diagnostics,
            Diagnostic("GRF003", "error", f"{location}:{where}", message),
            overflow,
        )

    n = graph.num_detectors
    m = graph.num_edges
    if len(decoder.edge_u) != m or len(decoder.edge_v) != m:
        add(
            "uf",
            f"decoder stores {len(decoder.edge_u)} edges but the graph "
            f"has {m}",
        )
        return diagnostics

    # Flat arrays vs the graph's edge list.
    for index, edge in enumerate(graph.edges):
        if (
            int(decoder.edge_u[index]) != edge.u
            or int(decoder.edge_v[index]) != edge.v
            or int(decoder.edge_obs[index]) != edge.observables
        ):
            add(
                f"edge{index}",
                f"flat arrays disagree with graph edge {index}: "
                f"({int(decoder.edge_u[index])}, {int(decoder.edge_v[index])}, "
                f"obs={int(decoder.edge_obs[index])}) vs "
                f"({edge.u}, {edge.v}, obs={edge.observables})",
            )
        if int(decoder.lengths[index]) <= 0:
            add(
                f"edge{index}",
                f"edge {index} has non-positive discretized length "
                f"{int(decoder.lengths[index])}",
            )

    # Plain-list mirrors vs the flat arrays.
    mirrors = (
        ("_eu", decoder._eu, decoder.edge_u),
        ("_ev", decoder._ev, decoder.edge_v),
        ("_eobs", decoder._eobs, decoder.edge_obs),
        ("_len", decoder._len, decoder.lengths),
    )
    for name, mirror, flat in mirrors:
        if list(mirror) != [int(x) for x in flat]:
            bad = next(i for i, (a, b) in enumerate(zip(mirror, flat)) if a != int(b))
            add(
                f"mirror.{name}",
                f"list mirror {name} diverges from its flat array at "
                f"index {bad}: {mirror[bad]!r} vs {int(flat[bad])!r}",
            )

    # CSR adjacency: each edge must appear exactly once per endpoint,
    # with the correct far endpoint in adj_other, and the list-of-pairs
    # mirror must match.
    if len(decoder.adj_indptr) != n + 2:
        add("uf", f"adj_indptr has {len(decoder.adj_indptr)} entries, want {n + 2}")
        return diagnostics
    for node in range(n + 1):
        lo, hi = int(decoder.adj_indptr[node]), int(decoder.adj_indptr[node + 1])
        slots = list(range(lo, hi))
        csr_pairs = sorted(
            (int(decoder.adj_edges[j]), int(decoder.adj_other[j])) for j in slots
        )
        expected = sorted(
            (index, edge.v if edge.u == node else edge.u)
            for index, edge in enumerate(graph.edges)
            if node in (edge.u, edge.v)
        )
        if csr_pairs != expected:
            add(
                f"adj{node}",
                f"CSR adjacency of node {node} is {csr_pairs}, "
                f"expected {expected}",
            )
        mirror_pairs = sorted((int(e), int(o)) for e, o in decoder._adj[node])
        if mirror_pairs != csr_pairs:
            add(
                f"adj{node}",
                f"adjacency list mirror of node {node} is {mirror_pairs}, "
                f"CSR says {csr_pairs}",
            )

    # Batched lockstep kernel (when built): bit-identity with the flat
    # decoder requires *shared* edge arrays and CSR adjacency — a copy
    # could silently drift after a graph rebuild.
    kernel = getattr(decoder, "_batched", None)
    if kernel is not None:
        for name in ("edge_u", "edge_v", "lengths", "adj_indptr", "adj_edges", "adj_other"):
            if getattr(kernel, name) is not getattr(decoder, name):
                add(
                    f"batched.{name}",
                    f"batched kernel holds a copy of {name} instead of "
                    "sharing the flat decoder's array",
                )
        _lint_slots(kernel, decoder, graph, add)
    return diagnostics


def _lint_slots(kernel, decoder: UnionFindDecoder, graph: MatchingGraph, add) -> None:
    """The kernel's slot tables and sentinel length against the CSR.

    Slot ``j`` of a detector holds its ``j``-th CSR entry (edge id, far
    endpoint) in CSR order; every other slot, and every slot of the
    boundary row, holds the sentinel ``(num_edges, node)``, and the
    sentinel's length is 0.
    """
    m = graph.num_edges
    n1 = graph.num_detectors + 1
    edges, other = kernel.slot_edges, kernel.slot_other
    if edges.ndim != 2 or edges.shape != other.shape or edges.shape[1] != n1:
        add(
            "batched.slots",
            f"slot tables have shapes {edges.shape} and {other.shape}, "
            f"want (D, {n1})",
        )
    else:
        width = edges.shape[0]
        for node in range(n1):
            lo, hi = int(decoder.adj_indptr[node]), int(decoder.adj_indptr[node + 1])
            if node == graph.boundary:
                lo = hi
            expected = list(
                zip(decoder.adj_edges[lo:hi].tolist(), decoder.adj_other[lo:hi].tolist())
            )
            expected += [(m, node)] * (width - len(expected))
            slots = list(zip(edges[:, node].tolist(), other[:, node].tolist()))
            if slots != expected:
                add(
                    f"batched.slots{node}",
                    f"slots of node {node} hold {slots}, expected {expected}",
                )
    lengths = [int(x) for x in kernel._len16]
    if lengths != [int(x) for x in decoder.lengths] + [0]:
        add(
            "batched.len16",
            f"kernel lengths (sentinel {lengths[-1:]}) are not the flat "
            "decoder's lengths plus a sentinel of length 0",
        )
