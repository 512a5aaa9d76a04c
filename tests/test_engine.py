"""Tests for the batched, sharded Monte-Carlo engine and decode_batch.

The engine's contract: for a fixed seed, the logical-error count is a pure
function of (circuit, seed, shots) — bit-identical for any ``workers``,
whether blocks are decoded in process in one batch or one per call on
the supervised fleet — and decode work scales with *unique* syndromes,
not shots (the regression the old unbounded per-shot dict cache guarded
poorly).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.decoders import BatchedUnionFind, MatchingGraph, make_decoder
from repro.dem import DetectorErrorModel
from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.sim import (
    SHOT_BLOCK,
    BlockExecutionError,
    count_logical_errors,
    make_sampler,
    prepare_decoding,
    run_memory_experiment,
    shot_blocks,
)
from repro.sim.frame import sample_detection_data
from repro.surface_code import baseline_memory_circuit


def _memory(p=5e-3, d=3):
    return baseline_memory_circuit(d, ErrorModel(hardware=BASELINE_HARDWARE, p=p))


class _FailingSampler:
    """A real sampler that raises on one block (module level, so a fleet
    on a start method other than fork can pickle it to its workers)."""

    def __init__(self, inner, spawn_key):
        self.inner = inner
        self.spawn_key = spawn_key

    def sample(self, shots, seed):
        if seed.spawn_key == self.spawn_key:
            raise RuntimeError("sampler fault")
        return self.inner.sample(shots, seed)


class TestShotBlocks:
    def test_partition_sums_to_shots(self):
        for shots in (1, SHOT_BLOCK - 1, SHOT_BLOCK, SHOT_BLOCK + 1, 5000):
            sizes = shot_blocks(shots)
            assert sum(sizes) == shots
            assert all(s == SHOT_BLOCK for s in sizes[:-1])
            assert 0 < sizes[-1] <= SHOT_BLOCK

    def test_partition_depends_only_on_shots(self):
        assert shot_blocks(4000) == shot_blocks(4000)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            shot_blocks(0)


class TestDeterminism:
    """Same seed ⇒ identical result for any workers.

    Holds per backend: each of ``packed``/``reference`` defines its own
    canonical random stream, and within a stream the count is a pure
    function of (circuit, seed, shots).
    """

    # 2100 shots spans two full blocks plus a remainder block.
    SHOTS = 2100

    @pytest.mark.parametrize("backend", ["packed", "reference"])
    @pytest.mark.parametrize("decoder", ["unionfind", "mwpm"])
    def test_workers_and_chunks_do_not_change_counts(self, decoder, backend):
        memory = _memory()
        reference = run_memory_experiment(
            memory, shots=self.SHOTS, decoder=decoder, seed=11, backend=backend
        )
        # workers=1 decodes all three blocks in one batch; the fleet
        # decodes them one per call with fresh decoder state.
        for workers in (2, 4):
            result = run_memory_experiment(
                memory,
                shots=self.SHOTS,
                decoder=decoder,
                seed=11,
                workers=workers,
                backend=backend,
            )
            assert result == reference, (workers, backend)

    @pytest.mark.parametrize("backend", ["packed", "reference"])
    def test_different_seeds_differ(self, backend):
        memory = _memory()
        a = run_memory_experiment(memory, shots=self.SHOTS, seed=1, backend=backend)
        b = run_memory_experiment(memory, shots=self.SHOTS, seed=2, backend=backend)
        assert a.logical_errors != b.logical_errors

    def test_backends_agree_statistically(self):
        memory = _memory()
        packed = run_memory_experiment(memory, shots=self.SHOTS, seed=3)
        reference = run_memory_experiment(
            memory, shots=self.SHOTS, seed=3, backend="reference"
        )
        assert abs(packed.logical_errors - reference.logical_errors) <= max(
            10, 0.5 * reference.logical_errors
        )

    def test_invalid_engine_parameters(self):
        memory = _memory()
        with pytest.raises(ValueError):
            run_memory_experiment(memory, shots=100, workers=0)
        with pytest.raises(ValueError):
            run_memory_experiment(memory, shots=100, backend="simd")


class TestPlainRunFailures:
    """A plain run never silently drops shots."""

    def _count(self, decoder=None, **kwargs):
        memory = _memory()
        setup = prepare_decoding(memory)
        return count_logical_errors(
            memory.circuit, decoder or setup.decoder, setup.basis_detectors,
            setup.basis_observables, seed=5, **kwargs,
        )

    def test_fleet_block_failure_raises_naming_the_block(self):
        sampler = _FailingSampler(make_sampler(_memory().circuit, "packed"), (2,))
        with pytest.raises(BlockExecutionError) as excinfo:
            self._count(sampler=sampler, shots=4 * SHOT_BLOCK, workers=2)
        err = excinfo.value
        assert err.block == 2
        assert "spawn_key=(2,)" in err.seed_label
        assert "block 2" in str(err) and "sampler fault" in str(err)

    def test_inline_decode_failure_falls_back_to_the_same_count(self, registry):
        healthy = self._count(shots=2100)
        broken = prepare_decoding(_memory()).decoder

        def boom(dets):
            raise RuntimeError("batched kernel corrupted")

        broken._decode_uniques = boom
        assert self._count(broken, shots=2100) == healthy
        # One run_block call (three blocks) fell back, and the registry
        # says so even though the count is healthy.
        snapshot = registry.snapshot()
        totals = obs.summarize_snapshot(snapshot)
        assert totals["repro_engine_decode_fallbacks_total"] == 1
        # The fallback's decodes are in the decode registry too: every
        # engine shot was decoded, and the tiers still sum to unique.
        assert totals["repro_decode_shots_total"] == totals["repro_engine_shots_total"]
        tiers = snapshot["repro_decode_tier_shots_total"]["values"]
        assert sum(tiers.values()) == totals["repro_decode_unique_total"]
        assert tiers["full"] > 0

    def test_tier_mismatch_raises_instead_of_falling_back(self, registry):
        """Misrouted tiers are a fault, not a decode failure to degrade."""
        miscounting = prepare_decoding(_memory()).decoder
        decode_batch = miscounting.decode_batch

        def misroute(dets):
            predictions = decode_batch(dets)
            miscounting.last_batch_stats["trivial"] += 1
            return predictions

        miscounting.decode_batch = misroute
        with pytest.raises(BlockExecutionError, match="block 0") as excinfo:
            self._count(miscounting, shots=2100)
        assert excinfo.value.block == 0
        assert "do not sum to the unique syndromes" in str(excinfo.value)
        totals = obs.summarize_snapshot(registry.snapshot())
        assert "repro_engine_decode_fallbacks_total" not in totals


class TestPackObservables:
    def test_packs_low_bits(self):
        from repro.sim.engine import _pack_observables

        observables = np.array([[True, False], [False, True], [True, True]])
        np.testing.assert_array_equal(
            _pack_observables(observables, [0, 1]), [1, 2, 3]
        )

    def test_rejects_more_than_63_observables(self):
        from repro.sim.engine import _pack_observables

        observables = np.zeros((4, 64), dtype=bool)
        with pytest.raises(ValueError, match="63 observables"):
            _pack_observables(observables, list(range(64)))

    def test_count_logical_errors_rejects_wide_basis_up_front(self):
        from repro.sim.engine import count_logical_errors

        memory = _memory()
        with pytest.raises(ValueError, match="63 observables"):
            count_logical_errors(
                memory.circuit, None, [0], list(range(64)), shots=10
            )


class TestDecodeBatch:
    def _decoder(self):
        memory = _memory()
        dem = DetectorErrorModel(memory.circuit)
        graph = MatchingGraph.from_dem(dem, memory.basis)
        return make_decoder("unionfind", graph), dem, memory

    def test_matches_per_shot_decode(self):
        decoder, dem, memory = self._decoder()
        data = sample_detection_data(memory.circuit, 256, 0)
        dets = data.detectors[:, dem.basis_detectors(memory.basis)]
        batched = decoder.decode_batch(dets)
        for shot in range(dets.shape[0]):
            events = np.flatnonzero(dets[shot]).tolist()
            assert batched[shot] == decoder.decode(events)

    def test_decodes_each_unique_syndrome_once(self):
        decoder, dem, memory = self._decoder()
        data = sample_detection_data(memory.circuit, 64, 0)
        dets = data.detectors[:, dem.basis_detectors(memory.basis)]
        # Tile the batch: 4x the shots, same unique syndromes.
        tiled = np.vstack([dets] * 4)
        unique_nonzero = len({row.tobytes() for row in dets if row.any()})
        calls = []
        inner = decoder.decode
        decoder.decode = lambda events: calls.append(1) or inner(events)
        first = decoder.decode_batch(tiled)
        # Each non-trivial unique syndrome goes through the lockstep
        # kernel exactly once (the batched tier), never the per-shot
        # decode.
        assert len(calls) == 0
        stats = decoder.last_batch_stats
        assert stats["batched"] == unique_nonzero
        assert stats["full"] == 0
        # Nothing carries over: the second call decodes them all again.
        repeat = decoder.decode_batch(tiled)
        assert len(calls) == 0
        assert decoder.last_batch_stats == stats
        np.testing.assert_array_equal(repeat, first)

    def test_tier_accounting_sums_to_unique(self):
        decoder, dem, memory = self._decoder()
        data = sample_detection_data(memory.circuit, 512, 0)
        dets = data.detectors[:, dem.basis_detectors(memory.basis)]
        decoder.decode_batch(dets)
        stats = decoder.last_batch_stats
        from repro.decoders import TIER_NAMES

        assert sum(stats[t] for t in TIER_NAMES) == stats["unique"]
        assert stats["shots"] == dets.shape[0]
        unique = len({row.tobytes() for row in dets})
        assert stats["unique"] == unique

    def test_zero_syndromes_skip_the_decoder(self):
        decoder, _, _ = self._decoder()
        decoder.decode = None  # any call would raise
        out = decoder.decode_batch(np.zeros((5, decoder.graph.num_detectors), bool))
        assert np.array_equal(out, np.zeros(5, dtype=np.int64))

    def test_rejects_non_2d_input(self):
        decoder, _, _ = self._decoder()
        with pytest.raises(ValueError):
            decoder.decode_batch(np.zeros(7, dtype=bool))

    def test_empty_batch(self):
        decoder, _, _ = self._decoder()
        out = decoder.decode_batch(np.zeros((0, decoder.graph.num_detectors), bool))
        assert out.shape == (0,)


class TestBoundedDecodeWork:
    def test_decode_calls_scale_with_unique_syndromes_not_shots(self, monkeypatch):
        """Regression for the seed's unbounded per-shot cache.

        At low p most shots repeat a handful of syndromes; the rows the
        lockstep kernel decodes (the cache-miss analogue, and the
        working-set bound) must stay far below the shot count even
        across many blocks.
        """
        memory = _memory(p=3e-4)
        shots = 8192
        rows = []
        inner = BatchedUnionFind.decode_batch
        monkeypatch.setattr(
            BatchedUnionFind,
            "decode_batch",
            lambda self, dets: rows.append(len(dets)) or inner(self, dets),
        )
        run_memory_experiment(memory, shots=shots, seed=0)
        assert 0 < sum(rows) < shots // 4


class TestFirstBlockImports:
    """A fresh worker's first block imports no module: an import on the
    hot path (``np.unique`` loads ``numpy.ma``) would slow the first
    block of every fleet worker."""

    def test_first_run_block_imports_nothing(self):
        script = textwrap.dedent("""
            import json, sys
            from repro.noise import BASELINE_HARDWARE, ErrorModel
            from repro.sim import make_sampler, prepare_decoding
            from repro.sim.engine import block_seeds, run_block
            from repro.surface_code import baseline_memory_circuit

            memory = baseline_memory_circuit(
                3, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3))
            setup = prepare_decoding(memory)
            sampler = make_sampler(memory.circuit, "packed")
            blocks = block_seeds(1024, 0)
            before = set(sys.modules)
            errors, stats = run_block(
                sampler, setup.decoder, setup.basis_detectors,
                setup.basis_observables, blocks)
            print(json.dumps({"imported": sorted(set(sys.modules) - before),
                              "errors": errors, "stats": stats}))
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        report = json.loads(out.stdout)
        assert report["stats"]["batched"] > 0  # the kernel ran
        assert report["imported"] == []
