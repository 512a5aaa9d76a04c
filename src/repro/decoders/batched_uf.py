"""Batched lockstep union-find growth kernel.

Union-find's ``decode_batch`` sends every non-trivial unique syndrome
of a batch here, so this kernel is the only growth loop production
decoding runs.  It grows *all* of a batch's syndromes
simultaneously instead of calling the per-shot pure-Python flat-array
union-find once per syndrome: state lives in 2-D numpy arrays shaped
``(batch, n_nodes)`` / ``(batch, n_edges + 1)`` over the *shared* flat edge
arrays the :class:`~repro.decoders.unionfind.UnionFindDecoder` already
built, so every growth round is a handful of vectorized passes instead
of an interpreted per-edge loop per shot.  Those passes follow the
clusters, not the state: each one runs over a sorted **member list** or
over fixed-shape blocks of the slots of its hot members.

Per lockstep iteration:

1. **Members and activity** — the member list holds the global ids
   ``row*n1 + node`` of the nodes inside some cluster: each live row's
   event nodes at the start, plus the far endpoint of every completed
   edge.  Any other node is an untouched even singleton — its own root,
   inactive — so no pass needs to visit it.  Cluster parity and
   boundary contact are kept *incrementally* in one flags byte at root
   positions only (bit 0 parity, bit 1 boundary; merges XOR the
   absorbed roots' parity into the surviving root, OR their boundary
   bits, and zero the stale slots), and members stay compressed, so a
   member's activity is ``flags == 1`` gathered at its root.  The
   boundary node starts as a boundary-flagged parity-0 singleton, so
   any cluster that absorbs it goes inactive automatically.  A shot is
   live while some member root is active; the members of finished shots
   leave the list (row slots never move), so the loop narrows to the
   *last* shots still growing.
2. **Frontier discovery** — the members of active clusters ("hot"
   nodes) read their slots out of two ``(D, n_nodes)`` slot tables,
   laid out once from the flat decoder's shared CSR adjacency: slot
   ``j`` of a node is its ``j``-th CSR entry (edge id, far endpoint),
   and ``D`` is the largest detector degree.  One ``take`` per table
   gives ``(D, H)`` blocks for the ``H`` hot nodes, one column each,
   row-major in the shot index because the member list is sorted.  A
   mask keeps the entries the flat decoder's pass 1 rates: the far
   endpoint's root differs (not internal) and some length remains (not
   completed).  Unused slots hold a sentinel edge of length 0 and point
   at the node itself, so the mask drops them both ways.  Nothing is
   compacted: masked entries ride along at rate 0, and every unmasked
   one carries the full rate ``1 + activity(far root)``.  A hot node
   with no unmasked slot is permanently retired from expansion (both
   conditions are monotone), so per-round work tracks the live cluster
   surface, not the graph size.
3. **Completion jump** — the flat decoder's fast-forward trick
   generalized per shot: the per-shot ``k = min over the frontier of
   ceil(remaining / rate)`` runs per hot node over the slots (axis 0),
   then per shot over the sorted hot nodes (``minimum.reduceat``), with
   every masked entry reading the uint16 maximum.  Remaining lengths
   are read and written at the blocks only, masked entries written back
   unchanged.  An entry finishes when its distance is within its shot's
   jump; every live shot completes at least one edge per iteration, and
   the far endpoints of completed edges that were not yet members join
   the list.
4. **Merges** — an edge between two active clusters appears in the
   blocks once per side, with both copies agreeing on rate and
   remaining length; at completion the copy seen from the smaller root
   is kept so each genuine completion is processed exactly once and is
   recorded as a ``(shot, edge)`` support entry.  Genuine edges union
   their endpoint clusters by iterated min-root hooking on the small
   per-edge root arrays — hook the larger root id onto the smaller,
   re-chase lost writes.  Every parent pointer carries an XOR
   potential ``φ``, the observable parity of the forest path to its
   parent, written from the same edge as the hook that won, so the
   hooks build a spanning forest of every cluster out of support
   edges.  Once the hooks converge, each involved pre-merge root
   points straight at its new root, and the members under a moved
   root follow it in one gather: members stay compressed, with ``φ``
   relative to their root.  Min-root hooking keeps every parent
   pointer non-increasing, so the pointer graph stays acyclic and a
   retired root can never become a root again — which is what lets
   the flags live only at root slots, and keeps every root's ``φ`` 0.

No pass in the loop touches a full ``(rows, n_nodes)`` or ``(rows,
n_edges + 1)`` array; those are reset once per sub-batch.  The pooled
state is allocated once per kernel and reused across calls (remaining
lengths are int16, with one column for the sentinel; root flags int8),
and the full-width resets write through ``out=`` or slice
fills: numpy routes MB-sized temporaries through mmap, and the
page-fault churn costs more than the arithmetic.  The blocks are never
compacted because compaction costs more than the padding it drops:
gathers and compactions cost about 1.5–1.8 ns per element against
about 0.2 ns for arithmetic, and 89–96% of the real (non-padding)
entries pass the mask on the benchmark graphs.

**Determinism contract.**  The support returned per shot is identical
to the flat decoder's: both realize the unit-step growth trajectory.
The regression tests pin the flat decoder round by round against an
independent unit-step reference and the legacy decoder, and this
kernel's support against the flat decoder's ``_grow``, row by row.
Peeling reads the predictions off the forest growth leaves behind.
Growth stops only when no cluster is odd and off the boundary, its
clusters are then exactly the support's connected components, and its
hook edges span each one, so ``φ(x)`` is the observable parity of a
support path from ``x`` to its cluster's root.  The flat decoder's
canonical ``_peel`` returns the observable mask of *one* correction
inside the support whose boundary is the event set (plus the boundary
node when the event count is odd); any two such corrections differ by a
cycle of the support.  If every support edge satisfies ``φ(u) ^ φ(v) ==
obs(e)``, every cycle has zero observable parity and every such
correction has the mask ``XOR of φ over its boundary`` — so the
prediction is tree-independent and equals ``_peel``'s.  A shot with an
observable-odd support cycle (a boundary-to-boundary spanning cluster, a
fraction of a percent of rows at threshold) falls back to ``_peel``
itself; whether it has one depends on its support alone, not on which
hooks won.  Corrections are therefore bit-identical to per-shot flat
decoding, which keeps every pinned ledger, bench count, and resume
contract unchanged.
"""

from __future__ import annotations

from time import perf_counter
import numpy as np

from repro import obs

__all__ = ["BatchedUnionFind", "DEFAULT_LOCKSTEP"]

#: Shots grown per lockstep sub-batch.  Each iteration's passes cover the
#: members and slot blocks of every shot in the sub-batch, so wider
#: sub-batches amortize numpy dispatch over more shots, while the
#: per-sub-batch state reset and the wait for the slowest shot grow
#: with it.  It also sizes the preallocated ``(lockstep, n_edges + 1)``
#: pool, and every decoder owns one, so width is paid in memory: sized
#: per graph to keep the int16 pool under 2 MB (1024 rows at d=7,
#: 2048–4096 on the d=3 program graphs), perfbench's ``peak_rss_mb``
#: rose from about 96 to 117 MB on the program workload (six decoders,
#: six pools) and from 85 to 94 MB at d=7, while two runs per side left
#: the speed change unresolved (2-core shared Linux host).
DEFAULT_LOCKSTEP = 512

_MAX_GROWTH_ROUNDS = 1_000_000
#: Largest edge length the kernel accepts.  Remaining lengths are int16,
#: and a jump never takes a rated entry's below -1; the flat decoder
#: caps its lengths well below this, at 4096 units.
_MAX_LENGTH = 10922
#: A masked entry's completion distance, read as uint16: above any real
#: one, which is at most ``_MAX_LENGTH``.
_NEVER = np.iinfo(np.uint16).max
#: Root flag bits: parity and boundary contact.  A cluster is active
#: when its root's flags equal ``_ACTIVE``: odd, off the boundary.
_ACTIVE = np.int8(1)
_BOUNDARY = np.int8(2)


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values in ``x``."""
    starts = np.empty(x.size, bool)
    starts[:1] = True
    np.not_equal(x[1:], x[:-1], out=starts[1:])
    return starts


class BatchedUnionFind:
    """Lockstep growth over the shared arrays of a ``UnionFindDecoder``.

    The kernel owns no graph data: edge endpoints, discretized lengths,
    the CSR adjacency and the boundary node index are the *same arrays*
    the flat decoder lowered in its ``__init__`` (the analyzer's GRF003
    pass checks the
    sharing), so the two implementations cannot drift apart — and the
    flat decoder remains the per-shot oracle the property tests compare
    against, exactly like the legacy→flat transition.
    """

    def __init__(self, decoder, lockstep: int = DEFAULT_LOCKSTEP):
        if lockstep < 1:
            raise ValueError("lockstep must be >= 1")
        self.decoder = decoder
        self.lockstep = lockstep
        self.boundary = decoder.boundary_node
        self.num_detectors = decoder.graph.num_detectors
        # Shared views, not copies: bit-identity starts with byte-identity
        # of the graph lowering (lengths carry the weight discretization).
        self.edge_u = decoder.edge_u
        self.edge_v = decoder.edge_v
        self.lengths = decoder.lengths
        if len(self.lengths) and int(self.lengths.max()) > _MAX_LENGTH:
            raise ValueError(
                f"edge lengths exceed {_MAX_LENGTH} units; the int16 lockstep "
                "kernel cannot represent them"
            )
        # One int16 length column per edge plus a sentinel column of
        # length 0 that every padding slot points at (see ``_slot_tables``).
        self._len16 = np.zeros(len(self.lengths) + 1, np.int16)
        self._len16[:-1] = self.lengths
        # The flat decoder's CSR adjacency, shared too: for each node, the
        # incident edge ids and the opposite endpoints.  The growth loop
        # reads it through the slot tables laid out from it once here.
        self.adj_indptr = decoder.adj_indptr
        self.adj_edges = decoder.adj_edges
        self.adj_other = decoder.adj_other
        self.slot_edges, self.slot_other = self._slot_tables()
        self._rows = 0  # allocated buffer rows; grown on demand in _ensure

    def _slot_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR laid out slot-major: two ``(D, n_nodes)`` int32 tables.

        Slot ``j`` of node ``x`` holds ``x``'s ``j``-th CSR entry — its
        edge id and far endpoint, in CSR order.  ``D`` is the largest
        degree of any *detector* (at least 1).  The boundary row is all
        padding: its cluster is boundary-flagged, so it is never hot.
        An unused slot holds the sentinel edge id ``num_edges`` (length
        0) and the node itself, so its far root is its own root and no
        length remains — the growth loop's mask drops it both ways.
        """
        n1 = self.num_detectors + 1
        indptr = self.adj_indptr
        node = np.repeat(np.arange(n1, dtype=np.int32), np.diff(indptr))
        slot = np.arange(node.size, dtype=np.int32) - indptr.take(node)
        keep = node != self.boundary
        node, slot = node[keep], slot[keep]
        width = int(slot.max(initial=0)) + 1
        edges = np.full((width, n1), len(self.lengths), np.int32)
        other = np.tile(np.arange(n1, dtype=np.int32), (width, 1))
        edges[slot, node] = self.adj_edges[keep]
        other[slot, node] = self.adj_other[keep]
        return edges, other

    # ------------------------------------------------------------------
    def _ensure(self, rows: int) -> None:
        """(Re)allocate the reusable buffer pool for at least ``rows`` rows."""
        if rows <= self._rows:
            return
        rows = max(rows, self.lockstep)
        n1 = self.num_detectors + 1
        columns = len(self._len16)  # edges plus the sentinel
        if rows * max(n1, columns) >= 2**31:
            raise ValueError(
                "batch too large for the kernel's int32 flat indexing"
            )
        shape_n = (rows, n1)
        shape_e = (rows, columns)
        # Per-shot cluster state: int8 flags live at root slots (bit 0
        # parity, bit 1 boundary contact; a cluster is active at 1), and
        # each edge's remaining length is int16.
        self._parent = np.empty(shape_n, np.int32)
        self._flags = np.empty(shape_n, np.int8)
        self._remain = np.empty(shape_e, np.int16)
        self._unit_round = np.empty(rows, np.int32)
        # Surface (not yet interior) and member masks.
        self._surf = np.empty(shape_n, np.int8)
        self._member = np.empty(shape_n, bool)
        # XOR potential of each parent pointer (observable parity of the
        # forest path to the parent), written only at members: 0 when a
        # node joins, set when its root is hooked.  The peel reads it.
        self._phi = np.empty(shape_n, np.int64)
        # Flat-index bases: buffer row r of a (rows, n1) array starts at
        # flat offset r*n1, so ``row_off + node`` gathers straight out of
        # the raveled buffer with no 2-D advanced indexing.
        self._row_off = (np.arange(rows, dtype=np.int32) * n1)[:, None]
        self._rows = rows

    # ------------------------------------------------------------------
    def decode_batch(self, dets: np.ndarray) -> np.ndarray:
        """Corrections for a ``(shots, num_detectors)`` bool array.

        Bit-identical to calling the flat decoder's ``decode`` per row.
        Rows are processed in ``lockstep``-sized sub-batches; sub-batch
        boundaries cannot change any row's result (each shot's growth is
        independent — lockstep only shares the *passes*, never state).
        """
        dets = np.asarray(dets, dtype=bool)
        if dets.ndim != 2 or dets.shape[1] != self.num_detectors:
            raise ValueError(
                f"expected (shots, {self.num_detectors}) syndromes, got {dets.shape}"
            )
        predictions = np.zeros(dets.shape[0], dtype=np.int64)
        grow_s = peel_s = 0.0
        fallbacks = 0
        # Group shots of similar weight into the same lockstep sub-batch:
        # a sub-batch runs until its *slowest* shot completes, so sorting
        # retires the easy sub-batches in a handful of iterations instead
        # of dragging every slice through the global worst case.  Order
        # cannot change any result — each shot's growth is independent.
        order = np.argsort(dets.sum(axis=1, dtype=np.int32), kind="stable")
        for lo in range(0, dets.shape[0], self.lockstep):
            sel = order[lo : lo + self.lockstep]
            rows = dets[sel]
            t0 = perf_counter()
            shot, edge = self.grow_batch(rows)
            t1 = perf_counter()
            predictions[sel], fell_back = self._peel_batch(rows, shot, edge)
            grow_s += t1 - t0
            peel_s += perf_counter() - t1
            fallbacks += fell_back
        reg = obs.active()
        if reg is not None:
            reg.counter("repro_decode_kernel_calls_total").inc()
            reg.counter("repro_decode_kernel_rows_total").inc(dets.shape[0])
            reg.counter("repro_decode_kernel_peel_fallback_total").inc(fallbacks)
            reg.histogram("repro_decode_kernel_grow_seconds").observe(grow_s)
            reg.histogram("repro_decode_kernel_peel_seconds").observe(peel_s)
        return predictions

    # ------------------------------------------------------------------
    def grow_batch(self, dets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grow all shots of one sub-batch; returns the ``(shot, edge)`` support.

        Steps 1–4 of the module docstring.  Every pass runs over the
        sorted *member list* — the global ids ``row*n1 + node`` of the
        nodes inside some cluster — or over the ``(D, H)`` slot blocks
        of its hot members; no pass in the loop touches a full ``(rows,
        n_nodes)`` or ``(rows, n_edges + 1)`` array.  Completions are
        recorded as they happen, each exactly once, and the support comes
        back as entry arrays (order is unspecified).  The forest the
        merges built — parents and ``φ`` at every member, live rows
        packed first — stays in the pool for ``_peel_batch``.
        """
        dets = np.asarray(dets, dtype=bool)
        if dets.ndim != 2 or dets.shape[1] != self.num_detectors:
            raise ValueError(
                f"expected (shots, {self.num_detectors}) syndromes, got {dets.shape}"
            )
        n = dets.shape[1]
        n1 = n + 1
        columns = len(self._len16)  # edges plus the sentinel
        done_shot: list[np.ndarray] = [np.empty(0, np.int64)]
        done_edge: list[np.ndarray] = [np.empty(0, np.int32)]

        # Rows with no events are done before the first round.
        live_ids = np.flatnonzero(dets.any(axis=1))
        a = live_ids.size
        if a == 0:
            return done_shot[0], done_edge[0]
        self._ensure(a)
        # Reset the pooled state: every event node starts as its own odd
        # singleton, the boundary a boundary-flagged even one, everything
        # else an even singleton (absorbing a node is just hooking it
        # into a cluster), and every edge with its full length to grow.
        # Parents are kept in *global* flat coordinates
        # (``row*n1 + node``): every root gather, activity lookup, hook,
        # chase and compression pass then indexes the raveled buffers
        # directly, with no per-pass row-offset add.
        self._parent[:a] = np.arange(n1, dtype=np.int32)
        np.add(self._parent[:a], self._row_off[:a], out=self._parent[:a])
        self._flags[:a] = 0
        self._flags[:a, :n] = dets[live_ids]
        self._flags[:a, self.boundary] = _BOUNDARY
        self._remain[:a] = self._len16
        self._unit_round[:a] = 0
        self._surf[:a] = 1

        # Raveled views for flat takes/scatters, taken per call: a view
        # stored as an attribute would be pickled as a separate array.
        pflat = self._parent.reshape(-1)
        flagflat = self._flags.reshape(-1)
        surfflat, memflat = self._surf.reshape(-1), self._member.reshape(-1)
        remflat = self._remain.reshape(-1)
        phiflat = self._phi.reshape(-1)
        unit_round = self._unit_round
        slot_edges, slot_other = self.slot_edges, self.slot_other
        # Each live row starts with its event nodes as members, each its
        # own root (the raveled ``(rows, n1)`` layout makes flat
        # positions global ids).  Row slots never move: a member's row
        # is ``// n1``.
        members = np.flatnonzero(self._flags[:a] == _ACTIVE).astype(np.int32)
        roots = members
        self._member[:a] = False
        memflat[members] = True
        phiflat[members] = 0
        step = np.empty(a, np.int16)  # per-shot jump of this iteration

        while True:
            # Member activity: odd parity, no boundary contact at the
            # member's root, whose slot holds the cluster's exact flags.
            active = flagflat.take(roots) == _ACTIVE
            mrow = members // n1

            # A shot is live iff some member root is active; members of
            # finished shots leave the list for good.
            live = np.zeros(a, bool)
            live[mrow[active]] = True
            n_live = int(np.count_nonzero(live))
            if n_live == 0:
                return np.concatenate(done_shot), np.concatenate(done_edge)
            keep = live.take(mrow)
            if not keep.all():
                members = members[keep]
                roots = roots[keep]
                active = active[keep]
                mrow = mrow[keep]

            # Hot nodes — members of active clusters, minus nodes whose
            # every incident edge has become internal or complete (both
            # conditions are permanent, so once a node has no unmasked
            # slot left it never has one again and the ``surf`` mask
            # retires it from expansion for good).
            hsel = np.flatnonzero(active & surfflat.take(members))
            if hsel.size == 0:
                raise RuntimeError("union-find growth failed to terminate")
            hidx = members.take(hsel)
            hs = mrow.take(hsel)
            hb = hs * n1
            hn = hidx - hb

            # The hot nodes' slots as (D, H) blocks, one column per hot
            # node (row-major in the shot index because the member list
            # is sorted): edge id, global far node, remaining-length
            # position.  Padding slots point at the sentinel edge and the
            # hot node itself.
            rsrc = roots.take(hsel)  # this side's root (the hot node's cluster)
            eidx = slot_edges.take(hn, axis=1)
            far = slot_other.take(hn, axis=1)
            far += hb
            fi = eidx + hs * columns

            # Mask to the edges the flat decoder would rate: not internal
            # (other endpoint's root differs) and not completed.  A far
            # node outside the member list is its own root, and an edge
            # is complete exactly when no length remains; a padding slot
            # fails both tests.
            ro = pflat.take(far)  # other endpoint's root
            rem = remflat.take(fi)
            m = ro != rsrc
            m &= rem > 0
            produced = np.logical_or.reduce(m, axis=0)
            if not produced.all():
                surfflat[hidx[~produced]] = 0
            # Rate 1 + the other side's activity, 0 where masked.
            both = flagflat.take(ro) == _ACTIVE
            both &= m
            rate = np.add(both, m, dtype=np.int8)

            # Per-shot segments of the row-major hot nodes; every live
            # shot needs one, or an active cluster has no frontier left
            # (disconnected component) — the flat decoder's failure.
            first = np.flatnonzero(_run_starts(hs))
            if first.size != n_live:
                raise RuntimeError("union-find growth failed to terminate")

            # Per-shot completion jump: k = min over the shot's frontier
            # of ceil(remaining / rate).  A masked entry's distance is
            # OR-ed with -1, so read as uint16 it is ``_NEVER``, above
            # any real one.  The minimum runs per hot node over its
            # slots, then per shot over its hot nodes.
            shift = both.view(np.int8)  # 1 for rate 2, else 0
            need = np.right_shift(rem + shift, shift)
            need |= np.subtract(m, 1, dtype=np.int16)
            need = need.view(np.uint16)
            k = np.minimum.reduceat(need.min(axis=0), first)
            if int(k.max()) == _NEVER:
                raise RuntimeError("union-find growth failed to terminate")
            shots = hs.take(first)
            step[shots] = k
            unit_round[shots] += k
            if int(unit_round[:a].max()) > _MAX_GROWTH_ROUNDS:  # pragma: no cover
                raise RuntimeError("union-find growth failed to terminate")

            # Apply the jump; an entry finishes when its distance is
            # within the jump, which no masked entry is.  The scatter
            # writes masked entries back unchanged (padding only ever
            # writes the sentinel column's 0).  Every finished entry is
            # an edge the flat decoder rates, so completions go straight
            # into the support.  A rate-2 edge finished from both sides
            # — keep the copy seen from the smaller root so each
            # completion is processed once.
            hstep = step.take(hs)
            rem -= rate * hstep
            remflat[fi] = rem
            done = np.flatnonzero(need <= hstep.view(np.uint16))
            col = done % hs.size  # the hot node of each completion
            root_a = rsrc.take(col)
            root_b = ro.take(done)
            once = (rate.take(done) == 1) | (root_a < root_b)
            if not once.all():
                done, col = done[once], col[once]
                root_a, root_b = root_a[once], root_b[once]
            edge = eidx.take(done)
            done_shot.append(live_ids.take(hs.take(col)))
            done_edge.append(edge)

            # Far endpoints not yet in a cluster join the member list,
            # once each and in sorted place, so hot nodes stay row-major
            # (the stable sort merges the two sorted runs in linear time).
            # A joining node is its own root, so its ``φ`` starts at 0.
            ends = np.concatenate((hidx.take(col), far.take(done)))
            joined = ends[col.size :]
            joined = joined[~memflat.take(joined)]
            if joined.size:
                joined.sort()
                memflat[joined] = True
                phiflat[joined] = 0
                members = np.concatenate((members, joined[_run_starts(joined)]))
                members.sort(kind="stable")

            # Merge across the newly completed edges — their pre-merge
            # endpoint roots are the entry's (root_a, root_b) pair,
            # already in hand.  The flags of every involved pre-merge
            # root are lifted out, the slots zeroed, and the values
            # scattered back onto the post-merge roots (XOR for parity,
            # OR for boundary) so root slots stay exact.
            # Sorted dedup of the involved root slots (every live shot
            # completes at least one edge, so the list is never empty);
            # plain sort beats hash-unique at these sizes.
            end_roots = np.concatenate([root_a, root_b])
            rf = np.sort(end_roots)
            roots_flat = rf[_run_starts(rf)]
            vals = flagflat[roots_flat]
            flagflat[roots_flat] = 0
            roots = self._merge_sparse(
                members, end_roots, ends, self.decoder.edge_obs.take(edge)
            )
            new_roots = pflat[roots_flat]
            np.bitwise_xor.at(flagflat, new_roots, vals & _ACTIVE)
            np.bitwise_or.at(flagflat, new_roots, vals & _BOUNDARY)

    # ------------------------------------------------------------------
    def _merge_sparse(
        self,
        members: np.ndarray,
        end_roots: np.ndarray,
        ends: np.ndarray,
        obs_e: np.ndarray,
    ) -> np.ndarray:
        """Union across completed edges by iterated min-root hooking.

        Edge ``i`` of ``h`` joins ``ends[i]`` and ``ends[h + i]``, whose
        pre-merge roots are ``end_roots[i]`` and ``end_roots[h + i]``,
        and flips ``obs_e[i]``.
        Roots arrive in global flat coordinates, so hooks and the root
        re-chasing after lost writes (two merges sharing a root in one
        pass) index the raveled buffers directly and run on the small
        per-edge arrays only.  ``acc`` follows each endpoint's ``φ``
        relative to its chased root, so a root ``hi`` hooked under
        ``lo`` takes ``φ(hi) = acc_u ^ acc_v ^ obs(e)`` from an edge
        whose hook won, and the edge's endpoints then differ by
        ``obs(e)``.  At convergence the chased roots and ``acc`` point
        every involved pre-merge root straight at its new root; members
        under a moved root follow it, and the members' roots are
        returned.  Every other node is an untouched singleton and
        already its own root.
        Min-hooking keeps parent pointers non-increasing, hence acyclic,
        so a retired root can never become a root again — which is what
        lets parity live only at root slots, and keeps a root's ``φ`` 0.
        """
        pflat = self._parent.reshape(-1)
        phi = self._phi.reshape(-1)
        h = obs_e.size
        hooked = rr = end_roots
        start = acc = phi.take(ends)  # φ relative to ``rr``
        while True:
            ra = rr[:h]
            rb = rr[h:]
            unmerged = ra != rb
            if not unmerged.any():
                break
            lo = np.minimum(ra, rb)[unmerged]
            hi = np.maximum(ra, rb)[unmerged]
            pflat[hi] = lo
            # The offset comes from an edge whose parent write won.
            won = pflat.take(hi) == lo
            val = (acc[:h] ^ acc[h:] ^ obs_e)[unmerged]
            phi[hi[won]] = val[won]
            while True:  # re-chase every endpoint root after the hooks
                nxt = pflat.take(rr)
                if (nxt == rr).all():
                    break
                acc = acc ^ phi.take(rr)
                rr = nxt
        # Only the involved pre-merge roots can have been hooked; each now
        # points at its new root, ``start ^ acc`` being its path parity.
        pflat[hooked] = rr
        phi[hooked] = start ^ acc
        # A member points at its pre-merge root: follow a moved one.
        up = pflat.take(members)
        root = pflat.take(up)
        moved = np.flatnonzero(up != root)
        if moved.size:
            follow = members.take(moved)
            phi[follow] ^= phi.take(up.take(moved))
            pflat[follow] = root.take(moved)
        return root

    # ------------------------------------------------------------------
    def _peel_batch(
        self, dets: np.ndarray, shot: np.ndarray, edge: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Read a sub-batch's predictions off the forest growth built.

        Runs right after ``grow_batch(dets)`` returned the support
        ``(shot, edge)``: growth packs the live rows first, and every
        member's ``φ`` is then relative to its cluster root.  The
        prediction is the XOR of ``φ`` over the events, and over the
        boundary node when the event count is odd.  It equals the flat
        decoder's ``_peel`` whenever every support edge satisfies
        ``φ(u) ^ φ(v) == obs(e)`` (see the module docstring); the rows
        that fail that check are peeled by ``_peel`` itself.  Returns
        the predictions and the number of those fallback rows.
        """
        predictions = np.zeros(dets.shape[0], dtype=np.int64)
        ev_shot, ev_col = np.nonzero(dets)
        if ev_shot.size == 0:
            return predictions, 0
        n1 = self.num_detectors + 1
        phi = self._phi.reshape(-1)
        base = (np.cumsum(dets.any(axis=1)) - 1) * n1  # pool row offsets

        # XOR of φ over each shot's events (rows of ``ev_shot`` are
        # sorted), then over the boundary node for odd shots.
        first = np.flatnonzero(_run_starts(ev_shot))
        hit = ev_shot.take(first)
        ev_phi = phi.take(base.take(ev_shot) + ev_col)
        predictions[hit] = np.bitwise_xor.reduceat(ev_phi, first)
        odd = hit[np.diff(np.r_[first, ev_shot.size]) % 2 == 1]
        predictions[odd] ^= phi.take(base.take(odd) + self.boundary)

        # Observable-odd support cycles: peel those rows exactly.
        at = base.take(shot)
        cycle = phi.take(at + self.edge_u.take(edge))
        cycle ^= phi.take(at + self.edge_v.take(edge))
        bad = np.sort(shot[cycle != self.decoder.edge_obs.take(edge)])
        bad = bad[_run_starts(bad)]
        peel = self.decoder._peel
        for b in bad.tolist():
            predictions[b] = peel(
                ev_col[ev_shot == b].tolist(), edge[shot == b].tolist()
            )
        return predictions, bad.size
