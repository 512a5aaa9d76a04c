"""Property tests for the tiered batched decode dispatcher.

The contract under test: for ANY batch of syndromes, ``decode_batch`` —
dedup, then each decoder's ladder hook: MWPM's weight-1/weight-2
analytic rules before blossom, union-find's lockstep kernel — returns
element-wise exactly what a plain loop over ``decode`` would, for every
decoder, fills only that decoder's tiers, and keeps no state between
calls.  Hypothesis drives random batches through both
paths, including the degenerate shapes the tiers special-case: all-zero
rows, batches of only weight-1/weight-2 syndromes, and heavy (>2 event)
syndromes.

The dedup itself (``_unique_rows``, a sort over 64-bit words) is checked
against :func:`oracle_unique_rows`, row-wise ``np.unique``, which both
decode paths used before.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.decoders.batch as batch
import repro.sim.engine as engine
from repro.decoders import (
    TIER_NAMES,
    MatchingGraph,
    MWPMDecoder,
    UnionFindDecoder,
)
from repro.dem import DetectorErrorModel
from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.sim.experiment import prepare_decoding
from repro.surface_code import baseline_memory_circuit


def oracle_unique_rows(packed):
    """The old dedup: ``np.unique``'s ``index`` and flat ``inverse``."""
    _, index, inverse = np.unique(
        packed, axis=0, return_index=True, return_inverse=True
    )
    return index, np.asarray(inverse).ravel()


@pytest.fixture(scope="module")
def decoding_setup():
    model = ErrorModel(hardware=BASELINE_HARDWARE, p=3e-3)
    memory = baseline_memory_circuit(3, model)
    dem = DetectorErrorModel(memory.circuit)
    graph = MatchingGraph.from_dem(dem, "Z")
    return graph, MWPMDecoder(graph), UnionFindDecoder(graph)


def _batch_from_events(event_sets, num_detectors):
    dets = np.zeros((len(event_sets), num_detectors), dtype=bool)
    for row, events in enumerate(event_sets):
        for e in events:
            dets[row, e] = True
    return dets


# Random batches: rows of 0..6 events over the d=3 Z detectors.
_batches = st.lists(
    st.sets(st.integers(0, 11), min_size=0, max_size=6),
    min_size=1,
    max_size=12,
)


class TestTieredEqualsLooped:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches)
    @example(event_sets=[set()])  # all-trivial batch
    @example(event_sets=[set(), {3}, {7}, {11}])  # weight-1 only
    @example(event_sets=[{0, 1}, {2, 9}, {4, 5}])  # weight-2 only
    @example(event_sets=[{0, 1, 2, 3, 4, 5}])  # heavy only
    @example(event_sets=[set(), {5}, {1, 2}, {0, 3, 7, 9}, {1, 2}])  # mixed + dup
    @pytest.mark.parametrize("decoder_name", ["mwpm", "unionfind"])
    def test_batch_matches_loop(self, decoding_setup, decoder_name, event_sets):
        graph, mwpm, uf = decoding_setup
        decoder = mwpm if decoder_name == "mwpm" else uf
        dets = _batch_from_events(event_sets, graph.num_detectors)
        batched = decoder.decode_batch(dets)
        looped = np.array(
            [decoder.decode(sorted(events)) for events in event_sets], dtype=np.int64
        )
        np.testing.assert_array_equal(batched, looped)
        # Each decoder's ladder fills only its own tiers.
        stats = decoder.last_batch_stats
        unique = {frozenset(s) for s in event_sets}
        assert sum(stats[t] for t in TIER_NAMES) == stats["unique"] == len(unique)
        assert stats["trivial"] == int(frozenset() in unique)
        if decoder_name == "unionfind":
            assert stats["weight1"] == stats["weight2"] == stats["full"] == 0
        else:
            assert stats["batched"] == 0
            assert stats["weight1"] == sum(len(s) == 1 for s in unique)
            assert stats["weight2"] == sum(len(s) == 2 for s in unique)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches, seed=st.integers(0, 2**32 - 1))
    def test_row_order_invariance(self, decoding_setup, event_sets, seed):
        graph, _, uf = decoding_setup
        dets = _batch_from_events(event_sets, graph.num_detectors)
        perm = np.random.default_rng(seed).permutation(len(event_sets))
        np.testing.assert_array_equal(
            uf.decode_batch(dets)[perm], uf.decode_batch(dets[perm])
        )

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(event_sets=_batches)
    def test_tier_accounting_sums_to_unique(self, decoding_setup, event_sets):
        graph, _, uf = decoding_setup
        dets = _batch_from_events(event_sets, graph.num_detectors)
        uf.decode_batch(dets)
        stats = uf.last_batch_stats
        assert sum(stats[t] for t in TIER_NAMES) == stats["unique"]
        assert stats["unique"] == len({frozenset(s) for s in event_sets})
        assert stats["shots"] == len(event_sets)


class TestAnalyticTiersAreExact:
    """The analytic tiers must be provably identical to the full decoder."""

    def test_mwpm_weight1_table_is_decode(self, decoding_setup):
        graph, mwpm, _ = decoding_setup
        n = graph.num_detectors
        analytic, tiers = mwpm._decode_uniques(np.eye(n, dtype=bool))
        assert tiers == {"weight1": n, "weight2": 0, "full": 0}
        for det in range(n):
            assert int(analytic[det]) == mwpm.decode([det])

    def test_mwpm_weight2_rule_is_decode(self, decoding_setup):
        graph, mwpm, _ = decoding_setup
        n = graph.num_detectors
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        analytic, tiers = mwpm._decode_uniques(_batch_from_events(pairs, n))
        assert tiers == {"weight1": 0, "weight2": len(pairs), "full": 0}
        for (a, b), prediction in zip(pairs, analytic):
            assert int(prediction) == mwpm.decode([a, b]), (a, b)

    def test_weight1_table_only_builds_observed_detectors(self):
        # A detector whose solo syndrome is undecodable (no path anywhere)
        # must not break batches that never fire it: only the uniques a
        # batch holds are decoded.
        graph = MatchingGraph(2, "Z")
        graph.add_edge(0, graph.boundary, 0.01, 1)
        uf = UnionFindDecoder(graph)
        with pytest.raises(RuntimeError):
            uf.decode([1])  # isolated detector: growth cannot terminate
        dets = np.array([[True, False], [False, False]])
        np.testing.assert_array_equal(uf.decode_batch(dets), [1, 0])

    def test_unionfind_has_no_weight1_shortcut(self, decoding_setup):
        # Union-find's single events decode through the lockstep kernel
        # like every other non-trivial unique.
        graph, _, uf = decoding_setup
        uf.decode_batch(np.eye(graph.num_detectors, dtype=bool))
        assert uf.last_batch_stats["weight1"] == 0
        assert uf.last_batch_stats["batched"] == graph.num_detectors

    def test_unionfind_has_no_weight2_shortcut(self, decoding_setup):
        # Union-find peel ties have no closed form, so its weight-2
        # syndromes go through the lockstep kernel too.
        graph, _, uf = decoding_setup
        pairs = [(0, v) for v in range(1, graph.num_detectors)]
        uf.decode_batch(_batch_from_events(pairs, graph.num_detectors))
        assert uf.last_batch_stats["weight2"] == 0
        assert uf.last_batch_stats["batched"] == len(pairs)


class TestStatelessDecoders:
    """A batch decodes the same, tiers included, whatever batches the
    decoder decoded before it."""

    @pytest.mark.parametrize("decoder_name", ["mwpm", "unionfind"])
    def test_earlier_batch_changes_nothing(self, decoding_setup, decoder_name):
        graph, mwpm, uf = decoding_setup
        decoder = mwpm if decoder_name == "mwpm" else uf
        clone = pickle.loads(pickle.dumps(decoder))
        rng = np.random.default_rng(0)
        n = graph.num_detectors
        # Rows of every weight; batch B repeats every other row of A.
        density = rng.choice([0.0, 0.05, 0.15, 0.3], size=(96, 1))
        a = rng.random((96, n)) < density
        b = np.vstack([a[::2], rng.random((48, n)) < density[:48]])
        assert (a[::2].sum(axis=1) > 2).any()  # shared heavy syndromes
        decoder.decode_batch(a)
        after_a = decoder.decode_batch(b)
        stats_after_a = decoder.last_batch_stats
        np.testing.assert_array_equal(after_a, clone.decode_batch(b))
        assert stats_after_a == clone.last_batch_stats
        heavy_tier = "full" if decoder_name == "mwpm" else "batched"
        assert stats_after_a[heavy_tier] > 0


@st.composite
def _packed_rows(draw, width):
    """``(rows, width)`` uint8 rows built to collide and to tie on a prefix."""
    rows = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("random", "first byte", "last byte")))
    if shape == "random" or not width:
        # Few byte values, so random rows collide as well.
        high = draw(st.sampled_from((2, 4, 256)))
        packed = rng.integers(0, high, (rows, width), dtype=np.uint8)
    else:
        # One shared row that varies only in byte 0 or the last byte.
        packed = np.tile(rng.integers(0, 256, width, dtype=np.uint8), (rows, 1))
        column = 0 if shape == "first byte" else width - 1
        packed[:, column] = rng.integers(0, 256, rows, dtype=np.uint8)
    copies = draw(st.integers(0, rows))  # forced duplicate rows
    packed[rng.integers(0, rows, copies)] = packed[rng.integers(0, rows, copies)]
    return packed


class TestWordSortDedup:
    """``_unique_rows`` is ``np.unique(axis=0)`` for both decode paths."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 40])
    def test_matches_np_unique(self, width, data):
        packed = data.draw(_packed_rows(width))
        index, inverse = batch._unique_rows(packed)
        expected_index, expected_inverse = oracle_unique_rows(packed)
        np.testing.assert_array_equal(index, expected_index)
        np.testing.assert_array_equal(inverse, expected_inverse)
        assert index.dtype == expected_index.dtype
        assert inverse.dtype == expected_inverse.dtype

    @pytest.fixture(scope="class")
    def sampled(self):
        """A d=5 p=5e-3 union-find decoder and three sampled batches."""
        memory = baseline_memory_circuit(
            5, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        sampler = engine.make_sampler(memory.circuit, "packed")
        setup = prepare_decoding(memory, sampler=sampler)
        batches = [
            sampler.sample(2048, seed).detectors[:, setup.basis_detectors]
            for seed in range(3)
        ]
        return setup.decoder, batches

    def test_decode_batch_matches_oracle_dedup(self, sampled, monkeypatch):
        decoder, batches = sampled
        oracle = pickle.loads(pickle.dumps(decoder))  # same graph
        for dets in batches:
            predictions = decoder.decode_batch(dets)
            with monkeypatch.context() as patch:
                patch.setattr(batch, "_unique_rows", oracle_unique_rows)
                expected = oracle.decode_batch(dets)
            np.testing.assert_array_equal(predictions, expected)
            assert decoder.last_batch_stats == oracle.last_batch_stats

    def test_decode_batch_full_matches_oracle_dedup(self, sampled, monkeypatch):
        decoder, batches = sampled
        dets = batches[0][:512]
        predictions, stats = decoder.decode_batch_full(dets)
        monkeypatch.setattr(batch, "_unique_rows", oracle_unique_rows)
        expected, expected_stats = decoder.decode_batch_full(dets)
        np.testing.assert_array_equal(predictions, expected)
        assert stats == expected_stats
        assert stats["trivial"] > 0 and stats["full"] > 0
