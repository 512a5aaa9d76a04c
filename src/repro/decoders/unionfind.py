"""Weighted union-find decoder (Delfosse–Nickerson), the fast default.

Clusters grow outward from detection events in integer half-edge units
(edge lengths are the log-likelihood weights, discretized); odd clusters
keep growing until they merge with another odd cluster or touch the
boundary, after which the grown support is *peeled*: a spanning forest is
built over fully-grown edges and leaf edges are included in the correction
exactly when they resolve an unmatched event.  Near-MWPM accuracy at a
fraction of the cost — the property tests compare it against MWPM directly.

This is the flat-array implementation: the graph is lowered once in
``__init__`` into preallocated int32/int64 numpy arrays plus a CSR
adjacency built with one stable ``argsort`` (mirrored into plain lists
for the interpreted hot loop, and shared with the batched kernel), and
per-decode state — parent pointers, cluster parity/boundary flags, edge
growth — lives in preallocated arrays reset by a generation counter
instead of reallocation.  Growth is *fast-forwarded*: between merges the
active frontier is static, so instead of stepping one half-edge unit per
round the decoder jumps straight to the next completion
(``k = min over frontier edges of ceil(remaining / rate)`` unit rounds at
once).  The growth trajectory is identical to the unit-step algorithm —
each frontier edge of an active cluster grows one unit per unit round,
shared edges grow from both sides — because nothing about the frontier
can change between completions; the regression tests compare traces
against :class:`LegacyUnionFindDecoder` round by round.

Two deliberate behaviour pins versus the legacy dict implementation:

- A duplicate edge id in a cluster's frontier (possible after merge
  concatenation) grows that edge **once** per round from that cluster,
  never twice — enforced here by a per-round seen-set.  (In the legacy
  code duplicates were harmless only because a duplicated edge is always
  internal by the time it is revisited; the seen-set makes the invariant
  structural instead of incidental.)
- Peeling is canonical: support edges are processed in sorted-id order
  and forest roots in sorted-node order (boundary first), so the
  prediction depends only on the grown support, not on growth bookkeeping
  order.

Union-find has three implementations, each with one job:

- :class:`~repro.decoders.batched_uf.BatchedUnionFind`, the lockstep
  kernel, decodes every non-trivial unique syndrome of ``decode_batch``
  (the ``batched`` tier).
- The flat per-shot :meth:`UnionFindDecoder.decode` is the kernel's
  oracle.  Its ``_peel`` peels the kernel's rows with an
  observable-odd support cycle, and the tier-free fallback
  ``decode_batch_full`` calls it once per non-trivial unique syndrome.
- :class:`LegacyUnionFindDecoder` is the flat decoder's oracle and the
  bench baseline.
"""

from __future__ import annotations

import numpy as np

from repro.decoders.batch import SyndromeDecoder
from repro.decoders.batched_uf import BatchedUnionFind
from repro.decoders.graph import MatchingGraph

__all__ = ["LegacyUnionFindDecoder", "UnionFindDecoder"]

_MAX_GROWTH_ROUNDS = 1_000_000
#: Cap on a discretized edge length, in growth units.  It keeps every
#: length far below the lockstep kernel's int16 limit, so the kernel can
#: always be built over the flat decoder's arrays.
_MAX_UNITS = 4096


class UnionFindDecoder(SyndromeDecoder):
    """Weighted union-find decoding on a :class:`MatchingGraph`."""

    def __init__(self, graph: MatchingGraph, resolution: int = 16):
        """``resolution`` growth units per minimum edge weight.

        Too-coarse discretization collapses distinct weights onto the same
        integer length and measurably degrades accuracy; 16 units keeps the
        weight ratios of realistic circuit-level graphs (~1–4×) faithful.
        """
        super().__init__(graph)
        self.boundary_node = graph.boundary
        n = graph.num_detectors
        num_edges = graph.num_edges

        weights = [e.weight for e in graph.edges]
        positive = [w for w in weights if w > 0]
        unit = min(positive) / float(resolution) if positive else 1.0
        lengths = [max(1, min(_MAX_UNITS, round(w / unit))) for w in weights]

        # Flat graph arrays, built once (canonical storage)...
        self.edge_u = np.fromiter((e.u for e in graph.edges), np.int32, count=num_edges)
        self.edge_v = np.fromiter((e.v for e in graph.edges), np.int32, count=num_edges)
        self.edge_obs = np.fromiter(
            (e.observables for e in graph.edges), np.int64, count=num_edges
        )
        self.lengths = np.asarray(lengths, dtype=np.int32)
        # ... CSR adjacency: node -> incident edge ids, ascending, and in
        # ``adj_other`` the far endpoint of each.  A stable sort of the
        # interleaved endpoints ``u0, v0, u1, v1, ...`` lists each node's
        # edges in id order; slot ``2e + s`` is side ``s`` of edge ``e``.
        ends = np.stack([self.edge_u, self.edge_v], axis=1).ravel()
        slot = np.argsort(ends, kind="stable")
        self.adj_indptr = np.zeros(n + 2, dtype=np.int32)
        np.cumsum(np.bincount(ends, minlength=n + 1), out=self.adj_indptr[1:])
        self.adj_edges = (slot >> 1).astype(np.int32)
        self.adj_other = ends[slot ^ 1]

        # Plain-list mirrors: the per-decode loop is interpreted Python,
        # where list indexing beats numpy scalar indexing ~5x.  Adjacency
        # is mirrored as (edge, other-endpoint) pairs: a cluster's edge
        # list only ever holds edges incident to its own nodes, so the
        # near endpoint's root is the cluster root by construction and
        # only the far endpoint needs a find.
        self._eu = self.edge_u.tolist()
        self._ev = self.edge_v.tolist()
        self._eobs = self.edge_obs.tolist()
        self._len = self.lengths.tolist()
        pairs = list(zip(self.adj_edges.tolist(), self.adj_other.tolist()))
        bounds = self.adj_indptr.tolist()
        self._adj = [pairs[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

        # Preallocated decode state, reset by generation counter: touching
        # a node/edge stamps it with the current decode generation, so no
        # arrays are reallocated or cleared between decodes.
        self._parent = list(range(n + 1))
        self._parity = [0] * (n + 1)
        self._bnd = [False] * (n + 1)
        self._size = [1] * (n + 1)
        self._node_gen = [0] * (n + 1)
        self._root_active = [0] * (n + 1)  # stamped per growth round
        self._growth = [0] * num_edges
        self._edge_gen = [0] * num_edges
        self._edge_live = [0] * num_edges
        self._gen = 0
        self._round_stamp = 0

        # Peeling state, also generation-stamped: per-node support
        # adjacency, visited marks and event flags live in preallocated
        # lists so the peel allocates nothing but the tiny per-cluster
        # DFS order.  The batched kernel reads whole sub-batches'
        # predictions off the forest its growth built and calls ``_peel``
        # only for the rare shots whose support holds an observable-odd
        # cycle.
        self._pl_adj: list[list[int]] = [[] for _ in range(n + 1)]
        self._pl_node_gen = [0] * (n + 1)
        self._pl_visit_gen = [0] * (n + 1)
        self._pl_flag_gen = [0] * (n + 1)
        self._pl_flag = [False] * (n + 1)
        self._pl_gen = 0

        #: Lockstep kernel, built on first use.
        self._batched: BatchedUnionFind | None = None

    # ------------------------------------------------------------------
    def decode(self, events: list[int]) -> int:
        """Predicted observable-flip mask for the given detection events."""
        if not events:
            return 0
        support = self._grow(events)
        return self._peel(events, support)

    # ------------------------------------------------------------------
    def _grow(self, events: list[int], trace: list | None = None) -> list[int]:
        """Grow clusters until every one is even or touches the boundary.

        Returns the fully-grown edge ids (the support).  ``trace``, when
        given, receives one ``(unit_round, {edge: growth})`` entry per
        completion round — in unit-round numbering, so traces are directly
        comparable with a unit-step reference implementation.
        """
        gen = self._gen = self._gen + 1
        parent = self._parent
        parity = self._parity
        bnd = self._bnd
        size = self._size
        node_gen = self._node_gen
        root_active = self._root_active
        growth = self._growth
        edge_gen = self._edge_gen
        edge_live = self._edge_live
        eu, ev, lengths, adj = self._eu, self._ev, self._len, self._adj
        bnode = self.boundary_node

        touched: list[int] = []
        cluster_edges: dict[int, list[int]] = {}  # root -> incident edge ids
        for x in events:
            if node_gen[x] == gen:
                continue
            node_gen[x] = gen
            parent[x] = x
            parity[x] = 1
            bnd[x] = False
            size[x] = 1
            touched.append(x)
            cluster_edges[x] = list(adj[x])

        support: list[int] = []
        unit_round = 0
        while True:
            # Active roots: odd parity, no boundary contact.  The scan
            # doubles as path compression, keeping finds shallow; active
            # roots are marked with the per-round stamp so the edge scan
            # reads activity as one list lookup.
            rstamp = self._round_stamp = self._round_stamp + 1
            active: list[int] = []
            for x in touched:
                r = x
                while parent[r] != r:
                    r = parent[r]
                while parent[x] != r:
                    parent[x], x = r, parent[x]
                if parity[r] and not bnd[r] and root_active[r] != rstamp:
                    root_active[r] = rstamp
                    active.append(r)
            if not active:
                return support

            # Pass 1: scan only the active clusters' edge lists — frozen
            # clusters cost nothing until something grows into them.  Drop
            # completed and internal edges; rate the rest directly from
            # far-endpoint root activity (one unit per incident active
            # cluster per unit round, so an edge between two active
            # clusters grows from both sides; the near side is the active
            # cluster being scanned, hence rate >= 1), deduplicating
            # shared edges with the per-round stamp so no edge is rated
            # twice.  Alongside, find the fast-forward distance ``k``: the
            # number of unit rounds until the next completion.  Nothing
            # about cluster membership or activity can change between
            # completions, so ``k`` unit rounds collapse into one.
            rated_edges: list[int] = []
            rated_rates: list[int] = []
            k = _MAX_GROWTH_ROUNDS
            for r in active:
                edges = cluster_edges[r]
                kept: list[tuple[int, int]] = []
                for pair in edges:
                    e = pair[0]
                    if edge_live[e] == rstamp:
                        kept.append(pair)  # shared edge, already rated this round
                        continue
                    edge_live[e] = rstamp
                    if edge_gen[e] == gen:
                        g = growth[e]
                        if g >= lengths[e]:
                            continue  # completed in an earlier round
                    else:
                        g = 0
                    other = pair[1]
                    if node_gen[other] == gen:
                        ro = other
                        while parent[ro] != ro:
                            ro = parent[ro]
                        if ro == r:
                            continue  # became internal after an earlier merge
                        rate = 2 if root_active[ro] == rstamp else 1
                    else:
                        rate = 1
                    kept.append(pair)
                    rated_edges.append(e)
                    rated_rates.append(rate)
                    need = -(-(lengths[e] - g) // rate)
                    if need < k:
                        k = need
                cluster_edges[r] = kept
            if not rated_edges:  # active cluster with no frontier left
                raise RuntimeError("union-find growth failed to terminate")
            unit_round += k
            if unit_round > _MAX_GROWTH_ROUNDS:  # pragma: no cover - safety valve
                raise RuntimeError("union-find growth failed to terminate")

            completed: list[int] = []
            for e, rate in zip(rated_edges, rated_rates):
                if edge_gen[e] == gen:
                    growth[e] += rate * k
                else:
                    edge_gen[e] = gen
                    growth[e] = rate * k
                if growth[e] >= lengths[e]:
                    completed.append(e)
            if trace is not None:
                trace.append((unit_round, {e: growth[e] for e in rated_edges}))

            # Pass 2: completions absorb endpoints and merge clusters
            # (union by size; the prediction is independent of root choice
            # because peeling is canonical in the support set).
            completed.sort()
            for e in completed:
                support.append(e)
                for node in (eu[e], ev[e]):
                    if node_gen[node] != gen:
                        node_gen[node] = gen
                        parent[node] = node
                        parity[node] = 0
                        bnd[node] = node == bnode
                        size[node] = 1
                        touched.append(node)
                        cluster_edges[node] = [
                            pair
                            for pair in adj[node]
                            if not (
                                edge_gen[pair[0]] == gen
                                and growth[pair[0]] >= lengths[pair[0]]
                            )
                        ]
                ru = eu[e]
                while parent[ru] != ru:
                    ru = parent[ru]
                rv = ev[e]
                while parent[rv] != rv:
                    rv = parent[rv]
                if ru == rv:
                    continue
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
                parity[ru] ^= parity[rv]
                bnd[ru] = bnd[ru] or bnd[rv]
                big, small = cluster_edges[ru], cluster_edges[rv]
                if len(big) >= len(small):
                    big.extend(small)
                else:
                    small.extend(big)
                    cluster_edges[ru] = small
                cluster_edges[rv] = []

    # ------------------------------------------------------------------
    def _peel(self, events: list[int], support: list[int]) -> int:
        """Canonical peeling pass over the grown support.

        Deterministic in the support *set* alone: edges are laid down in
        sorted-id order and forest roots visited boundary-first then in
        sorted-node order, so the prediction cannot depend on the order in
        which growth happened to complete edges.  State lives in the
        generation-stamped ``_pl_*`` arrays (no per-call dicts or sets);
        the output is identical to the dict-based peel the legacy oracle
        still runs.
        """
        eu, ev, eobs = self._eu, self._ev, self._eobs
        bnode = self.boundary_node
        gen = self._pl_gen = self._pl_gen + 1
        node_gen = self._pl_node_gen
        adj = self._pl_adj
        nodes: list[int] = []
        for edge_id in sorted(support):
            u, v = eu[edge_id], ev[edge_id]
            if node_gen[u] == gen:
                adj[u].append(edge_id)
            else:
                node_gen[u] = gen
                adj[u] = [edge_id]
                nodes.append(u)
            if node_gen[v] == gen:
                adj[v].append(edge_id)
            else:
                node_gen[v] = gen
                adj[v] = [edge_id]
                nodes.append(v)

        flag_gen = self._pl_flag_gen
        flag = self._pl_flag
        for x in events:
            flag_gen[x] = gen
            flag[x] = True
        unmatched = len(events)
        visit_gen = self._pl_visit_gen
        prediction = 0

        # Roots: prefer the boundary node so leftover parity drains into it.
        roots = [bnode] if node_gen[bnode] == gen else []
        roots += sorted(n for n in nodes if n != bnode)
        for root in roots:
            if visit_gen[root] == gen:
                continue
            visit_gen[root] = gen
            order: list[tuple[int, int, int]] = []  # (node, parent, edge_id)
            stack = [root]
            while stack:
                u = stack.pop()
                for edge_id in adj[u]:
                    v = ev[edge_id] if eu[edge_id] == u else eu[edge_id]
                    if visit_gen[v] == gen:
                        continue
                    visit_gen[v] = gen
                    order.append((v, u, edge_id))
                    stack.append(v)
            # Peel leaves first (reverse discovery order).
            for node, parent, edge_id in reversed(order):
                if flag_gen[node] == gen and flag[node]:
                    flag[node] = False
                    unmatched -= 1
                    if flag_gen[parent] == gen and flag[parent]:
                        flag[parent] = False
                        unmatched -= 1
                    elif parent != bnode:
                        flag_gen[parent] = gen
                        flag[parent] = True
                        unmatched += 1
                    prediction ^= eobs[edge_id]
        if unmatched:  # pragma: no cover - parity invariant violated
            leftover = sorted(
                x for x in range(len(flag)) if flag_gen[x] == gen and flag[x]
            )
            raise RuntimeError(f"peeling left unmatched events: {leftover}")
        return prediction

    def __getstate__(self) -> dict:
        """Pickle without the lazily built kernel and its buffer pool;
        the unpickled decoder builds a fresh kernel on first use."""
        state = self.__dict__.copy()
        state["_batched"] = None
        return state

    # ------------------------------------------------------------------
    def batched_kernel(self) -> BatchedUnionFind:
        """The shared-array lockstep kernel, built on first use.

        Lazy because the kernel preallocates a buffer pool (about 3 MB
        at d=7) that per-shot callers never need.
        """
        if self._batched is None:
            self._batched = BatchedUnionFind(self)
        return self._batched

    def _decode_uniques(self, dets: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
        """Union-find's ladder: every non-trivial unique goes through the
        lockstep kernel (the ``batched`` tier)."""
        return self.batched_kernel().decode_batch(dets), {"batched": len(dets)}


class _DSU:
    """Union-find over lazily-touched nodes with cluster metadata.

    Part of :class:`LegacyUnionFindDecoder`, kept as the behavioural
    oracle for the flat-array rewrite.
    """

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.parity: dict[int, int] = {}
        self.boundary: dict[int, bool] = {}
        self.frontier: dict[int, list[int]] = {}

    def add(self, node: int, parity: int, is_boundary: bool, frontier: list[int]) -> None:
        if node not in self.parent:
            self.parent[node] = node
            self.parity[node] = parity
            self.boundary[node] = is_boundary
            self.frontier[node] = frontier

    def find(self, node: int) -> int:
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if len(self.frontier[ra]) < len(self.frontier[rb]):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.parity[ra] ^= self.parity[rb]
        self.boundary[ra] |= self.boundary[rb]
        self.frontier[ra].extend(self.frontier[rb])
        return ra


class LegacyUnionFindDecoder(SyndromeDecoder):
    """The pre-flat-array dict-based union-find implementation.

    Kept verbatim as a correctness oracle (the regression tests compare
    growth traces and predictions against it) and as the decode-throughput
    baseline in ``benchmarks/bench_engine_scaling.py``.  Not registered in
    ``repro.decoders.DECODERS``; use :class:`UnionFindDecoder`.
    """

    def __init__(self, graph: MatchingGraph, resolution: int = 16):
        super().__init__(graph)
        self.boundary_node = graph.boundary
        weights = [e.weight for e in graph.edges if e.weight > 0]
        if weights:
            unit = min(weights) / float(resolution)
        else:
            unit = 1.0
        self.lengths = [
            max(1, min(_MAX_UNITS, round(e.weight / unit))) for e in graph.edges
        ]
        self.adjacency: dict[int, list[int]] = graph.neighbors()

    # ------------------------------------------------------------------
    def decode(self, events: list[int]) -> int:
        """Predicted observable-flip mask for the given detection events."""
        if not events:
            return 0
        dsu, growth = self._grow(events)
        return self._peel(events, dsu, growth)

    def _grow(
        self, events: list[int], trace: list | None = None
    ) -> tuple[_DSU, dict[int, int]]:
        dsu = _DSU()
        growth: dict[int, int] = {}
        for event in events:
            dsu.add(event, parity=1, is_boundary=False, frontier=list(self.adjacency[event]))

        def active_roots() -> list[int]:
            roots = {dsu.find(n) for n in list(dsu.parent)}
            return [r for r in roots if dsu.parity[r] == 1 and not dsu.boundary[r]]

        rounds = 0
        while True:
            active = active_roots()
            if not active:
                break
            rounds += 1
            if rounds > _MAX_GROWTH_ROUNDS:  # pragma: no cover - safety valve
                raise RuntimeError("union-find growth failed to terminate")
            merges: list[int] = []
            grown_this_round: dict[int, int] = {}
            for root in active:
                kept: list[int] = []
                for edge_id in dsu.frontier[root]:
                    edge = self.graph.edges[edge_id]
                    u_in = edge.u in dsu.parent and dsu.find(edge.u) == root
                    v_in = edge.v in dsu.parent and dsu.find(edge.v) == root
                    if u_in and v_in:
                        continue  # became internal after an earlier merge
                    growth[edge_id] = growth.get(edge_id, 0) + 1
                    grown_this_round[edge_id] = growth[edge_id]
                    if growth[edge_id] >= self.lengths[edge_id]:
                        merges.append(edge_id)
                    else:
                        kept.append(edge_id)
                dsu.frontier[root] = kept
            if trace is not None:
                trace.append((rounds, grown_this_round))
            for edge_id in merges:
                edge = self.graph.edges[edge_id]
                for node in (edge.u, edge.v):
                    if node not in dsu.parent:
                        dsu.add(
                            node,
                            parity=0,
                            is_boundary=(node == self.boundary_node),
                            frontier=[
                                e
                                for e in self.adjacency[node]
                                if growth.get(e, 0) < self.lengths[e]
                            ],
                        )
                dsu.union(edge.u, edge.v)
        return dsu, growth

    # ------------------------------------------------------------------
    def _peel(self, events: list[int], dsu: _DSU, growth: dict[int, int]) -> int:
        """Peeling pass over the grown support; returns the observable mask."""
        support = [
            edge_id
            for edge_id, amount in growth.items()
            if amount >= self.lengths[edge_id]
        ]
        support_adj: dict[int, list[int]] = {}
        for edge_id in support:
            edge = self.graph.edges[edge_id]
            support_adj.setdefault(edge.u, []).append(edge_id)
            support_adj.setdefault(edge.v, []).append(edge_id)

        flagged = set(events)
        visited: set[int] = set()
        prediction = 0

        nodes = list(support_adj)
        # Roots: prefer the boundary node so leftover parity drains into it.
        roots = [self.boundary_node] if self.boundary_node in support_adj else []
        roots += [n for n in nodes if n != self.boundary_node]
        for root in roots:
            if root in visited:
                continue
            visited.add(root)
            order: list[tuple[int, int, int]] = []  # (node, parent, edge_id)
            stack = [root]
            parent_of: dict[int, tuple[int, int]] = {}
            while stack:
                u = stack.pop()
                for edge_id in support_adj.get(u, ()):
                    edge = self.graph.edges[edge_id]
                    v = edge.v if edge.u == u else edge.u
                    if v in visited:
                        continue
                    visited.add(v)
                    parent_of[v] = (u, edge_id)
                    order.append((v, u, edge_id))
                    stack.append(v)
            # Peel leaves first (reverse discovery order).
            for node, parent, edge_id in reversed(order):
                if node in flagged:
                    flagged.discard(node)
                    if parent in flagged:
                        flagged.discard(parent)
                    elif parent != self.boundary_node:
                        flagged.add(parent)
                    prediction ^= self.graph.edges[edge_id].observables
        if flagged:  # pragma: no cover - parity invariant violated
            raise RuntimeError(f"peeling left unmatched events: {sorted(flagged)}")
        return prediction
