"""Batched lockstep union-find kernel: bit-identity and growth pinning.

The kernel's whole contract is that it is indistinguishable from calling
the flat ``UnionFindDecoder`` per shot — same support, same canonical
peel, same predictions, same failures.  These tests pin that from five
directions: hypothesis-driven element-wise equality on both embeddings,
the grown support against the flat decoder's ``_grow`` row by row
(including the shared-edge double-growth scenario on the hand graphs;
the flat decoder itself is pinned round by round against the unit-step
reference in ``test_decoders.py``), exact corrections-equality on sampled
d=3/5/7 syndromes at threshold, the vectorized peel against the per-shot
``_peel`` (including the observable-odd cycles that must fall back to
it), the durable executor's graceful degradation when the batched
tier raises mid-block, and pickled warm decoders (what fleet workers
receive) decoding exactly as the originals.  Digests of the predictions
on 4,096-shot corpora at d=7 and d=11 pin the kernel across rewrites,
and exact fallback counts on 8,192-shot corpora pin which rows the peel
sends to ``_peel``.
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from test_decoders import line_graph

from repro import obs
from repro.arch import compact_memory_circuit
from repro.decoders import BatchedUnionFind, MatchingGraph, UnionFindDecoder
from repro.decoders.batched_uf import DEFAULT_LOCKSTEP
from repro.dem import DetectorErrorModel
from repro.noise import BASELINE_HARDWARE, MEMORY_HARDWARE, ErrorModel
from repro.sim.engine import block_seeds, make_sampler, run_block
from repro.sim.experiment import prepare_decoding
from repro.surface_code import baseline_memory_circuit


def _setup(circuit_factory, d=3, p=3e-3, hardware=BASELINE_HARDWARE):
    memory = circuit_factory(d, ErrorModel(hardware=hardware, p=p))
    dem = DetectorErrorModel(memory.circuit)
    graph = MatchingGraph.from_dem(dem, memory.basis)
    flat = UnionFindDecoder(graph)
    return memory, dem, flat


@pytest.fixture(scope="module")
def baseline_setup():
    return _setup(baseline_memory_circuit)


@pytest.fixture(scope="module")
def compact_setup():
    return _setup(compact_memory_circuit, hardware=MEMORY_HARDWARE)


def _batch_from_events(event_sets, num_detectors):
    dets = np.zeros((len(event_sets), num_detectors), dtype=bool)
    for row, events in enumerate(event_sets):
        for e in events:
            dets[row, e] = True
    return dets


def _flat_loop(flat, dets):
    out = np.zeros(dets.shape[0], dtype=np.int64)
    for i, row in enumerate(dets):
        events = np.flatnonzero(row).tolist()
        out[i] = flat.decode(events) if events else 0
    return out


# Mixed batches: zero, weight-1, weight-2 and heavy rows side by side.
_batches = st.lists(
    st.sets(st.integers(0, 11), min_size=0, max_size=7),
    min_size=1,
    max_size=14,
)


class TestBatchedEqualsFlat:
    """Element-wise ``kernel.decode_batch == per-shot flat decode``."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches)
    @example(event_sets=[set()])  # all-trivial batch
    @example(event_sets=[set(), {3}, {7}, {11}])  # weight-1 rows
    @example(event_sets=[{0, 1}, {2, 9}, {4, 5}])  # weight-2 rows
    @example(event_sets=[set(), {5}, {1, 2}, {0, 3, 6, 9}])  # all tiers mixed
    def test_baseline_embedding(self, baseline_setup, event_sets):
        _, _, flat = baseline_setup
        kernel = BatchedUnionFind(flat)
        dets = _batch_from_events(event_sets, flat.graph.num_detectors)
        np.testing.assert_array_equal(
            kernel.decode_batch(dets), _flat_loop(flat, dets)
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches)
    @example(event_sets=[set(), {5}, {1, 2}, {0, 3, 6, 9}])
    def test_compact_embedding(self, compact_setup, event_sets):
        _, _, flat = compact_setup
        kernel = BatchedUnionFind(flat)
        n = flat.graph.num_detectors
        dets = _batch_from_events(
            [{e % n for e in events} for events in event_sets], n
        )
        np.testing.assert_array_equal(
            kernel.decode_batch(dets), _flat_loop(flat, dets)
        )

    @pytest.mark.parametrize(
        "d,p,shots",
        [
            (3, 5e-3, 512),
            (5, 5e-3, 256),
            (7, 5e-3, 128),
            # Large graphs with small clusters: the member list is a
            # sliver of the (rows, n_nodes) state.
            (9, 1e-3, 256),
            (11, 1e-3, 256),
            # Far above threshold merges re-activate even clusters, whose
            # members must turn hot again.
            (5, 2e-2, 256),
        ],
    )
    def test_sampled_syndromes_at_threshold(self, d, p, shots):
        memory, dem, flat = _setup(baseline_memory_circuit, d=d, p=p)
        sampler = make_sampler(memory.circuit, "packed")
        dets = sampler.sample(shots, np.random.SeedSequence(7)).detectors[
            :, dem.basis_detectors(memory.basis)
        ]
        kernel = BatchedUnionFind(flat)
        np.testing.assert_array_equal(
            kernel.decode_batch(np.ascontiguousarray(dets, dtype=bool)),
            _flat_loop(flat, dets),
        )

    def test_lockstep_slicing_never_changes_results(self, baseline_setup):
        _, _, flat = baseline_setup
        rng = np.random.default_rng(5)
        dets = rng.random((40, flat.graph.num_detectors)) < 0.2
        reference = BatchedUnionFind(flat, lockstep=DEFAULT_LOCKSTEP).decode_batch(dets)
        for lockstep in (1, 3, 7, 40):
            np.testing.assert_array_equal(
                BatchedUnionFind(flat, lockstep=lockstep).decode_batch(dets),
                reference,
            )

    def test_shares_the_flat_decoder_arrays(self, baseline_setup):
        # Bit-identity starts with byte-identity of the graph lowering:
        # the kernel must decode over the *same* arrays, not copies.
        _, _, flat = baseline_setup
        kernel = BatchedUnionFind(flat)
        assert kernel.edge_u is flat.edge_u
        assert kernel.edge_v is flat.edge_v
        assert kernel.lengths is flat.lengths

    def test_undecodable_shot_raises_like_flat(self):
        # An isolated detector can never reach the boundary: the flat
        # decoder raises, so the kernel must too (same message contract).
        graph = MatchingGraph(2, "Z")
        graph.add_edge(0, graph.boundary, 0.01, 1)
        flat = UnionFindDecoder(graph)
        kernel = BatchedUnionFind(flat)
        dets = np.array([[True, False], [False, True]])
        with pytest.raises(RuntimeError, match="failed to terminate"):
            kernel.decode_batch(dets)

    def test_rejects_bad_shapes_and_lockstep(self, baseline_setup):
        _, _, flat = baseline_setup
        kernel = BatchedUnionFind(flat)
        with pytest.raises(ValueError):
            kernel.decode_batch(np.zeros(flat.graph.num_detectors, dtype=bool))
        with pytest.raises(ValueError):
            kernel.decode_batch(np.zeros((4, flat.graph.num_detectors + 1), dtype=bool))
        with pytest.raises(ValueError):
            BatchedUnionFind(flat, lockstep=0)


class TestPinnedPredictions:
    """sha256 of ``decode_batch`` predictions on sampled corpora.

    The flat-oracle comparisons above cover 128–512 shots per point;
    these digests cover 4,096 shots, nearly all of them non-trivial, so
    a slip that only shows at a rare slot or merge pattern still changes
    them.
    """

    @pytest.mark.parametrize(
        "d,p,seed,digest",
        [
            (7, 5e-3, 2407,
             "5f8792c5d35daf4e933618b1bbb8843275388eb57be4613a7cc4191acc10bdc9"),
            (11, 1e-3, 2411,
             "0ed8fcbdb4e4db3968f5bcdb0287156bdb8f5a40a0e137eff35c693d7da3e0a1"),
        ],
    )
    def test_prediction_digest(self, d, p, seed, digest):
        memory, dem, flat = _setup(baseline_memory_circuit, d=d, p=p)
        sampler = make_sampler(memory.circuit, "packed")
        dets = sampler.sample(4096, np.random.SeedSequence(seed)).detectors[
            :, dem.basis_detectors(memory.basis)
        ]
        predictions = BatchedUnionFind(flat).decode_batch(
            np.ascontiguousarray(dets, dtype=bool)
        )
        assert hashlib.sha256(predictions.astype("<i8").tobytes()).hexdigest() == digest


def _row_supports(kernel, dets):
    """Each row's sorted support edges, from the kernel's ``(shot, edge)`` entries."""
    shot, edge = kernel.grow_batch(dets)
    # Every completion is recorded once: no entry may repeat.
    assert len(set(zip(shot.tolist(), edge.tolist()))) == shot.size
    # Padding slots point at the sentinel edge, which never completes.
    assert (edge < kernel.decoder.graph.num_edges).all()
    return [sorted(edge[shot == row].tolist()) for row in range(dets.shape[0])]


def _sliced_supports(kernel, dets):
    """``_row_supports`` over ``kernel.lockstep``-row sub-batches, as
    ``decode_batch`` slices them."""
    supports = []
    for lo in range(0, dets.shape[0], kernel.lockstep):
        supports += _row_supports(kernel, dets[lo : lo + kernel.lockstep])
    return supports


def _flat_supports(flat, dets):
    return [sorted(flat._grow(np.flatnonzero(row).tolist())) for row in dets]


def _per_shot_peel(flat, dets, supports):
    out = np.zeros(dets.shape[0], dtype=np.int64)
    for i, row in enumerate(dets):
        events = np.flatnonzero(row).tolist()
        if events:
            out[i] = flat._peel(events, supports[i])
    return out


def _vectorized_peel(kernel, dets):
    # The peel reads the forest that this growth just left in the pool.
    shot, edge = kernel.grow_batch(dets)
    return kernel._peel_batch(dets, shot, edge)


def _fallback_count(kernel, dets):
    """Rows ``decode_batch`` sent to the per-shot ``_peel``, via the obs counter."""
    reg = obs.enable()
    try:
        kernel.decode_batch(dets)
        snap = reg.snapshot()
    finally:
        obs.disable()
    return snap["repro_decode_kernel_peel_fallback_total"]["values"].get("", 0)


class TestVectorizedPeel:
    """The batched XOR-potential peel equals the per-shot canonical ``_peel``."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches)
    @example(event_sets=[set(), {5}, {1, 2}, {0, 3, 6, 9}])
    def test_baseline_embedding(self, baseline_setup, event_sets):
        _, _, flat = baseline_setup
        kernel = BatchedUnionFind(flat)
        dets = _batch_from_events(event_sets, flat.graph.num_detectors)
        predictions, _ = _vectorized_peel(kernel, dets)
        np.testing.assert_array_equal(
            predictions, _per_shot_peel(flat, dets, _row_supports(kernel, dets))
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches)
    @example(event_sets=[set(), {5}, {1, 2}, {0, 3, 6, 9}])
    def test_compact_embedding(self, compact_setup, event_sets):
        _, _, flat = compact_setup
        kernel = BatchedUnionFind(flat)
        n = flat.graph.num_detectors
        dets = _batch_from_events(
            [{e % n for e in events} for events in event_sets], n
        )
        predictions, _ = _vectorized_peel(kernel, dets)
        np.testing.assert_array_equal(
            predictions, _per_shot_peel(flat, dets, _row_supports(kernel, dets))
        )

    @pytest.mark.parametrize(
        "d,p,fallbacks",
        [(3, 2e-2, 342), (5, 5e-3, 54), (7, 5e-3, 50), (11, 1e-3, 0)],
    )
    def test_spanning_supports_fall_back_and_still_agree(self, d, p, fallbacks):
        # Clusters that span boundary to boundary hold observable-odd
        # support cycles: those rows must take the exact per-shot peel.
        # Whether a row has one depends on its support alone, so the
        # counts are pinned.  A potential written from a different edge
        # than its hook's parent still predicts right, because the rows
        # it breaks fall back, but it raises these counts.
        memory, dem, flat = _setup(baseline_memory_circuit, d=d, p=p)
        sampler = make_sampler(memory.circuit, "packed")
        dets = sampler.sample(8192, np.random.SeedSequence(7)).detectors[
            :, dem.basis_detectors(memory.basis)
        ]
        dets = np.ascontiguousarray(dets, dtype=bool)
        kernel = BatchedUnionFind(flat)
        assert _fallback_count(kernel, dets) == fallbacks
        if d == 3:  # the per-shot loop is cheap only on the smallest graph
            np.testing.assert_array_equal(
                kernel.decode_batch(dets), _flat_loop(flat, dets)
            )

    def test_observable_odd_cycle_through_the_boundary(self):
        # The cycle B-0-1-2-B with the observable on (0, B) only.  Events
        # {0, 2} grow all four equal-length edges in the same round, so
        # the support is the whole cycle: matching 0-1-2 flips nothing,
        # matching both events to B flips the observable.  The answer
        # depends on the peeling tree, so the row must fall back.  {1}
        # spans the cycle too; {0} reaches B before closing it.
        graph = line_graph(obs_on_last=False)
        flat = UnionFindDecoder(graph)
        kernel = BatchedUnionFind(flat)
        dets = _batch_from_events([{0, 2}, {0}, {1}], graph.num_detectors)
        sizes = [len(support) for support in _row_supports(kernel, dets)]
        assert sizes[0] == sizes[2] == graph.num_edges > sizes[1]
        assert _fallback_count(kernel, dets) == 2
        np.testing.assert_array_equal(kernel.decode_batch(dets), _flat_loop(flat, dets))

    def test_odd_component_without_boundary_raises_like_peel(self):
        # A support that leaves one event with no partner and no boundary
        # violates the parity invariant: the per-shot peel refuses it.
        # The kernel never peels such a support: an odd cluster off the
        # boundary keeps its growth running, and one that cannot reach
        # the boundary fails to terminate, as the flat decoder does
        # (``test_undecodable_shot_raises_like_flat``).
        flat = UnionFindDecoder(line_graph())
        inner = next(
            i for i, e in enumerate(flat.graph.edges)
            if flat.graph.boundary not in (e.u, e.v)
        )
        with pytest.raises(RuntimeError, match="unmatched events"):
            flat._peel([flat.graph.edges[inner].u], [inner])


def _hub_graph():
    """Detector 0 is a hub of the maximal detector degree, detector 9 has
    degree 0, and the boundary's degree exceeds every detector's: the
    slot tables' full rows, empty columns and all-padding boundary row."""
    graph = MatchingGraph(10, "Z")
    for leaf in range(1, 6):
        graph.add_edge(0, leaf, 0.01 * leaf, leaf % 2)
    graph.add_edge(6, 7, 0.02, 0)
    graph.add_edge(7, 8, 0.03, 1)
    for det in range(1, 9):
        graph.add_edge(det, graph.boundary, 0.005 * det, det % 2)
    return graph


def _hand_cases():
    tri = MatchingGraph(3, "Z")
    tri.add_edge(0, 1, 0.01, 0)
    tri.add_edge(1, 2, 0.01, 0)
    tri.add_edge(0, 2, 0.01, 0)
    tri.add_edge(2, tri.boundary, 0.01, 1)
    line = line_graph()
    return [
        (line, [0, 2]),
        (line, [1]),
        # Two clusters sharing edge (0,1): at resolution 16 it completes
        # first only if it grows from both sides at once.
        (tri, [0, 1]),
        (tri, [0, 1, 2]),
    ]


class TestSupportPinning:
    """The kernel grows the flat decoder's support, row by row.

    The flat decoder is the oracle here; it is itself pinned round by
    round against the unit-step reference and the legacy decoder
    (``test_decoders.py::TestGrowthRegression``).
    """

    @pytest.mark.parametrize("resolution", [1, 16])
    def test_hand_cases_match_flat_grow(self, resolution):
        for graph, events in _hand_cases():
            flat = UnionFindDecoder(graph, resolution=resolution)
            kernel = BatchedUnionFind(flat)
            dets = _batch_from_events([set(events)], graph.num_detectors)
            assert _row_supports(kernel, dets) == [sorted(flat._grow(events))], events

    def test_random_and_sampled_batches_match_flat_grow(self, baseline_setup):
        # Random d=3 rows and sampled d=7 syndromes at threshold.
        _, _, flat = baseline_setup
        rng = np.random.default_rng(11)
        memory, dem, flat7 = _setup(baseline_memory_circuit, d=7, p=5e-3)
        sampled = make_sampler(memory.circuit, "packed").sample(
            64, np.random.SeedSequence(13)
        ).detectors[:, dem.basis_detectors(memory.basis)]
        for decoder, dets in (
            (flat, rng.random((32, flat.graph.num_detectors)) < 0.25),
            (flat7, np.ascontiguousarray(sampled, dtype=bool)),
        ):
            expected = _flat_supports(decoder, dets)
            assert _row_supports(BatchedUnionFind(decoder), dets) == expected

    def test_hub_graph_slots_and_supports(self):
        graph = _hub_graph()
        flat = UnionFindDecoder(graph)
        degree = np.diff(flat.adj_indptr)
        assert degree[9] == 0 and degree[0] == degree[:-1].max()
        assert degree[graph.boundary] > degree[0]
        kernel = BatchedUnionFind(flat)
        assert kernel.slot_edges.shape == (degree[0], graph.num_detectors + 1)
        # Events anywhere but the isolated detector, which cannot decode.
        rng = np.random.default_rng(17)
        dets = rng.random((200, graph.num_detectors)) < 0.3
        dets[:, 9] = False
        expected = _flat_supports(flat, dets)
        for lockstep in (1, DEFAULT_LOCKSTEP):
            kernel = BatchedUnionFind(flat, lockstep=lockstep)
            assert _sliced_supports(kernel, dets) == expected, lockstep

    def test_program_lowerings_match_flat_grow(self, program_lowerings):
        # The correlated d=3 compare's six graphs: compact and natural,
        # single qubit and joint, each with its own maximal degree.
        assert len(program_lowerings) == 6
        for index, (circuit, sampler) in enumerate(program_lowerings):
            dem = DetectorErrorModel(circuit, sampler)
            flat = UnionFindDecoder(MatchingGraph.from_dem(dem, "Z"))
            dets = sampler.sample(96, np.random.SeedSequence(index)).detectors[
                :, dem.basis_detectors("Z")
            ]
            dets = np.ascontiguousarray(dets, dtype=bool)
            expected = _flat_supports(flat, dets)
            for lockstep in (1, DEFAULT_LOCKSTEP):
                kernel = BatchedUnionFind(flat, lockstep=lockstep)
                assert _sliced_supports(kernel, dets) == expected, (index, lockstep)


class TestDurableDegradation:
    """A batched-tier failure must degrade to ``decode_batch_full``."""

    def test_batched_tier_raise_falls_back_to_full_block_decode(self):
        memory = baseline_memory_circuit(
            3, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        setup = prepare_decoding(memory)
        sampler = make_sampler(memory.circuit, "packed")
        index, shots, seed = block_seeds(512, 11)[0]

        errors, stats = run_block(
            sampler, setup.decoder, setup.basis_detectors,
            setup.basis_observables, [(index, shots, seed)],
        )
        assert stats.get("batched", 0) > 0
        assert "fallback" not in stats

        broken = prepare_decoding(memory).decoder

        def boom(dets):
            raise RuntimeError("batched kernel corrupted")

        broken._decode_uniques = boom
        errors_fb, stats_fb = run_block(
            sampler, broken, setup.basis_detectors,
            setup.basis_observables, [(index, shots, seed)],
        )
        # Same counts (the tiers are provably equivalent), flagged as
        # degraded, and everything heavy lands in ``full``.
        assert errors_fb == errors
        assert stats_fb["fallback"] == 1
        assert stats_fb["batched"] == 0
        assert stats_fb["full"] > 0
        assert stats_fb["unique"] == stats["unique"]


class TestPickledDecoder:
    """Fleet workers receive decoders by pickle, so a decoder that has
    already decoded in process must arrive decoding exactly as it does."""

    def test_warm_decoder_pickles_clean(self):
        memory = baseline_memory_circuit(
            5, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        sampler = make_sampler(memory.circuit, "packed")
        setup = prepare_decoding(memory, sampler=sampler)
        decoder, basis = setup.decoder, setup.basis_detectors
        cold_bytes = len(pickle.dumps(decoder))
        decoder.decode_batch(sampler.sample(2048, 1).detectors[:, basis])
        # The kernel's buffer pool does not travel.
        blob = pickle.dumps(decoder)
        assert len(blob) < 1.1 * cold_bytes
        clone = pickle.loads(blob)
        # A pickled warm kernel keeps its buffers, and must grow over them.
        kernel = pickle.loads(pickle.dumps(decoder.batched_kernel()))

        rows = sampler.sample(1024, 2).detectors[:, basis]
        for lo in range(0, rows.shape[0], DEFAULT_LOCKSTEP):
            sub = rows[lo : lo + DEFAULT_LOCKSTEP]
            expected = _row_supports(decoder.batched_kernel(), sub)
            assert _row_supports(clone.batched_kernel(), sub) == expected
            assert _row_supports(kernel, sub) == expected
        predictions = decoder.decode_batch(rows)
        assert np.array_equal(clone.decode_batch(rows), predictions)
        assert np.array_equal(kernel.decode_batch(rows), predictions)

        # Through the block runner: same count and tiers, no fallback.
        blocks = block_seeds(2048, 3)
        expected = run_block(
            sampler, decoder, basis, setup.basis_observables, blocks
        )
        got = run_block(sampler, clone, basis, setup.basis_observables, blocks)
        assert got == expected
        assert "fallback" not in got[1]
