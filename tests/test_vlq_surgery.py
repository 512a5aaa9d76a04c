"""Tests for the joint-window lattice-surgery subsystem (repro.vlq.surgery).

Four layers are covered:

* **geometry** — the merged rectangular patch's plaquette classification
  (interior / upgraded / seam-born) is construction-verified against the
  standalone layouts, and the timeline phasing around surgery windows;
* **lowering** — merged-patch circuits are certified deterministic
  (every detector and both per-patch observables) by the symbolic
  certificate for both embeddings, both bases, multiple windows and
  the paper clock;
* **factorization** — with the surgery-window noise channels zeroed the
  joint detector error model contains no cross-patch mechanism and the
  joint decode agrees shot-for-shot with independently decoded patches
  (the p→0 limit in which the joint estimate equals the independence
  product);
* **campaign** — correlated runs are bit-identical across worker counts
  on both backends, leave the independent per-qubit estimates untouched,
  share joint shapes through their caches, and fall back to independent
  pieces for surgery components larger than a pair.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LogicalProgram, Machine, compile_program
from repro.decoders import TIER_NAMES
from repro.durable import DurableExecutor, RunLedger
from repro.durable.ledger import parse_ledger
from repro.noise import MEMORY_HARDWARE, ErrorModel
from repro.sim import make_sampler, prepare_decoding
from repro.threshold import estimate_program_threshold
from repro.vlq import (
    JointLoweringSpec,
    MergedPatchLayout,
    build_program,
    certify_joint_deterministic,
    compare_architectures,
    joint_shape,
    lower_joint_timelines,
    partition_surgery,
    run_program_experiment,
)


def _machine(embedding="compact", grid=(1, 1), modes=10, distance=3):
    return Machine(
        stack_grid=grid, cavity_modes=modes, distance=distance, embedding=embedding
    )


def _model(p=2e-3):
    return ErrorModel(hardware=MEMORY_HARDWARE, p=p, scale_coherence=False)


def _surgery_pair(program, machine, policy="surgery_only"):
    schedule = compile_program(program, machine, policy=policy)
    partition = partition_surgery(schedule)
    (qa, qb), spans = partition.pairs[0]
    return schedule.qubit_timeline(qa), schedule.qubit_timeline(qb), spans, schedule


class TestMergedPatchLayout:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("distance", [3, 5])
    def test_classification_covers_and_verifies(self, basis, distance):
        layout = MergedPatchLayout(distance, basis)
        kinds = {"interior": 0, "upgraded": 0, "seam": 0}
        for p in layout.merged.plaquettes:
            kind, side, local_cell = layout.info[p.cell]
            kinds[kind] += 1
            if kind != "seam":
                assert side in ("a", "b")
                assert local_cell in {q.cell for q in layout.local.plaquettes}
        # Every standalone plaquette of each patch continues (interior)
        # or grows across the seam (upgraded): a bijection per side.
        assert kinds["interior"] + kinds["upgraded"] == 2 * len(layout.local.plaquettes)
        # The upgraded halves face the seam: exactly d-1 per patch (the
        # boundary half-checks of the non-memory basis on the merge edge).
        assert kinds["upgraded"] == distance - 1
        assert kinds["seam"] > 0
        assert len(layout.seam_coords) == distance

    def test_merge_axis_follows_basis(self):
        z = MergedPatchLayout(3, "Z")
        x = MergedPatchLayout(3, "X")
        assert (z.merged.rows, z.merged.cols) == (7, 3)
        assert (x.merged.rows, x.merged.cols) == (3, 7)
        assert z.seam_basis == "X" and x.seam_basis == "Z"
        assert z.merged.distance == 3 and x.merged.distance == 3

    def test_rejects_even_distance(self):
        with pytest.raises(ValueError, match="odd"):
            MergedPatchLayout(4, "Z")
        with pytest.raises(ValueError, match="odd"):
            JointLoweringSpec(distance=4, embedding="natural")

    def test_coordinate_round_trip(self):
        layout = MergedPatchLayout(3, "Z")
        for coord in layout.merged.data_coords:
            side = layout.side_of_coord(coord)
            if side == "seam":
                continue
            assert layout.to_merged(layout.to_local(coord, side), side) == coord


class TestPhasedSegments:
    def test_phases_bracket_windows(self):
        ta, tb, spans, _ = _surgery_pair(LogicalProgram.bell_pairs(2), _machine())
        assert len(spans) == 1
        phases = ta.phased_segments(spans)
        assert len(phases) == 2
        # the window itself contributes no segments; everything else does
        flat = [s for phase in phases for s in phase]
        total = sum(s[1] if s[0] in ("rounds", "idle") else 1 for s in flat)
        window_steps = sum(e - s for s, e in spans)
        plain = ta.segments()
        plain_total = sum(s[1] if s[0] in ("rounds", "idle") else 1 for s in plain)
        assert total == plain_total - window_steps

    def test_multi_window_phase_count(self):
        program = LogicalProgram().alloc(0, 1)
        for _ in range(3):
            program.cnot(0, 1)
        ta, tb, spans, _ = _surgery_pair(program, _machine())
        assert len(spans) == 3
        assert len(ta.phased_segments(spans)) == 4
        assert len(tb.phased_segments(spans)) == 4

    def test_unmatched_window_raises(self):
        schedule = compile_program(LogicalProgram.bell_pairs(2), _machine())
        timeline = schedule.qubit_timeline(0)
        with pytest.raises(ValueError, match="match no scheduled"):
            timeline.phased_segments(((100, 106),))

    def test_overlapping_windows_raise(self):
        schedule = compile_program(LogicalProgram.bell_pairs(2), _machine())
        timeline = schedule.qubit_timeline(0)
        with pytest.raises(ValueError, match="overlap"):
            timeline.phased_segments(((2, 8), (5, 11)))

    def test_segments_equals_unphased(self):
        schedule = compile_program(LogicalProgram.bell_pairs(4), _machine(grid=(2, 2)))
        for q in range(4):
            timeline = schedule.qubit_timeline(q)
            assert timeline.phased_segments(()) == (timeline.segments(),)


class TestJointLowering:
    @pytest.mark.parametrize("embedding", ["natural", "compact"])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_noiseless_joint_lowering_is_deterministic(self, embedding, basis):
        """Acceptance: the determinism certificate for both embeddings."""
        ta, tb, spans, _ = _surgery_pair(
            LogicalProgram.bell_pairs(2), _machine(embedding=embedding)
        )
        spec = JointLoweringSpec(distance=3, embedding=embedding, basis=basis)
        memory = lower_joint_timelines(ta, tb, spans, _model(), spec)
        certify_joint_deterministic(memory)
        assert memory.circuit.num_observables == 2
        assert memory.windows == 1

    @pytest.mark.parametrize("embedding", ["natural", "compact"])
    def test_multi_window_with_stored_bystanders_certifies(self, embedding):
        """Repeated merges/splits of the same pair, with other qubits
        stored on the stack forcing refresh traffic between windows."""
        program = LogicalProgram().alloc(0, 1, 2, 3)
        for _ in range(3):
            program.cnot(0, 1)
            program.cnot(2, 3)
        machine = _machine(embedding=embedding, modes=10)
        schedule = compile_program(program, machine, policy="surgery_only")
        partition = partition_surgery(schedule)
        assert len(partition.pairs) == 2
        for (qa, qb), spans in partition.pairs:
            assert len(spans) == 3
            spec = JointLoweringSpec(distance=3, embedding=embedding)
            memory = lower_joint_timelines(
                schedule.qubit_timeline(qa),
                schedule.qubit_timeline(qb),
                spans,
                _model(),
                spec,
            )
            certify_joint_deterministic(memory)
            assert memory.windows == 3

    def test_paper_clock_certifies_and_scales_rounds(self):
        ta, tb, spans, _ = _surgery_pair(
            LogicalProgram.bell_pairs(2), _machine(embedding="natural")
        )
        one = lower_joint_timelines(
            ta, tb, spans, _model(),
            JointLoweringSpec(distance=3, embedding="natural"),
        )
        paper = lower_joint_timelines(
            ta, tb, spans, _model(),
            JointLoweringSpec(distance=3, embedding="natural", rounds_per_timestep=3),
        )
        certify_joint_deterministic(paper)
        assert paper.window_rounds == 3 * one.window_rounds
        assert paper.rounds == 3 * one.rounds

    def test_measured_partner_certifies(self):
        """t_teleport measures the ancilla away mid-program; the joint
        circuit must still stitch its early readout correctly."""
        ta, tb, spans, _ = _surgery_pair(
            LogicalProgram.t_teleport(2), _machine(embedding="compact")
        )
        spec = JointLoweringSpec(distance=3, embedding="compact")
        memory = lower_joint_timelines(ta, tb, spans, _model(), spec)
        certify_joint_deterministic(memory)

    def test_joint_graph_has_no_undetectable_faults(self):
        for embedding in ("natural", "compact"):
            ta, tb, spans, _ = _surgery_pair(
                LogicalProgram.bell_pairs(2), _machine(embedding=embedding)
            )
            memory = lower_joint_timelines(
                ta, tb, spans, _model(),
                JointLoweringSpec(distance=3, embedding=embedding),
            )
            setup = prepare_decoding(memory, "unionfind")
            assert setup.graph.undetectable_probability == 0.0
            assert setup.basis_observables == [0, 1]

    def test_joint_shapes_dedupe_symmetric_pairs(self):
        machine = _machine(grid=(2, 2))
        schedule = compile_program(
            LogicalProgram.bell_pairs(4), machine, policy="surgery_only"
        )
        partition = partition_surgery(schedule)
        spec = JointLoweringSpec(distance=3, embedding="compact")
        shapes = [
            joint_shape(
                schedule.qubit_timeline(qa), schedule.qubit_timeline(qb), spans, spec
            )
            for (qa, qb), spans in partition.pairs
        ]
        assert shapes[0] == shapes[1]

    def test_requires_window_and_memory_hardware(self):
        ta, tb, spans, _ = _surgery_pair(LogicalProgram.bell_pairs(2), _machine())
        spec = JointLoweringSpec(distance=3, embedding="compact")
        with pytest.raises(ValueError, match="at least one surgery window"):
            lower_joint_timelines(ta, tb, (), _model(), spec)
        from repro.noise import BASELINE_HARDWARE

        bare = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        with pytest.raises(ValueError, match="memory hardware"):
            lower_joint_timelines(ta, tb, spans, bare, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            JointLoweringSpec(distance=3, embedding="diagonal")
        with pytest.raises(ValueError):
            JointLoweringSpec(distance=3, embedding="compact", basis="Y")
        with pytest.raises(ValueError):
            JointLoweringSpec(distance=3, embedding="compact", rounds_per_timestep=0)
        with pytest.raises(ValueError):
            JointLoweringSpec(distance=3, embedding="compact", window_noise_scale=1.5)


@lru_cache(maxsize=None)
def _factorized_setup(embedding):
    """Joint circuit with surgery-window noise zeroed, plus its decoder."""
    machine = _machine(embedding=embedding)
    schedule = compile_program(
        LogicalProgram.bell_pairs(2), machine, policy="surgery_only"
    )
    (qa, qb), spans = partition_surgery(schedule).pairs[0]
    spec = JointLoweringSpec(distance=3, embedding=embedding, window_noise_scale=0.0)
    memory = lower_joint_timelines(
        schedule.qubit_timeline(qa),
        schedule.qubit_timeline(qb),
        spans,
        _model(),
        spec,
    )
    setup = prepare_decoding(memory, "unionfind")
    sampler = make_sampler(memory.circuit, "packed")
    return memory, setup, sampler


class TestZeroWindowNoiseFactorization:
    @pytest.mark.parametrize("embedding", ["natural", "compact"])
    def test_dem_has_no_cross_patch_mechanisms(self, embedding):
        memory, setup, _ = _factorized_setup(embedding)
        side_of = [memory.detector_sides[i] for i in setup.basis_detectors]
        for fault in setup.dem.projected(memory.basis):
            sides = {side_of[i] for i in fault.detectors}
            assert "seam" not in sides, fault
            assert len(sides) <= 1, fault

    @pytest.mark.parametrize("embedding", ["natural", "compact"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_joint_decode_matches_independent_decode(self, embedding, seed):
        """With the window noiseless the joint graph splits into the two
        patches' components, so decoding the full joint syndrome must
        predict each patch's observable exactly as decoding that patch's
        syndrome alone — shot for shot."""
        memory, setup, sampler = _factorized_setup(embedding)
        data = sampler.sample(256, np.random.SeedSequence(seed))
        dets = data.detectors[:, setup.basis_detectors]
        side_of = np.array(
            [memory.detector_sides[i] for i in setup.basis_detectors]
        )
        joint = setup.decoder.decode_batch(dets)
        for bit, side in enumerate(memory.observable_sides):
            alone = dets.copy()
            alone[:, side_of != side] = False
            masked = setup.decoder.decode_batch(alone)
            assert np.array_equal((joint >> bit) & 1, (masked >> bit) & 1)


class TestCorrelatedCampaign:
    SHOTS = 1100  # one full engine block plus a remainder

    @pytest.mark.parametrize("backend", ["packed", "reference"])
    def test_workers_do_not_change_counts(self, backend):
        program = LogicalProgram.bell_pairs(4)
        machine = _machine(embedding="natural", grid=(2, 2))
        kwargs = dict(
            shots=self.SHOTS,
            seed=11,
            policy="surgery_only",
            correlated=True,
            backend=backend,
        )
        reference = run_program_experiment(program, machine, **kwargs)
        sharded = run_program_experiment(program, machine, workers=4, **kwargs)
        for a, b in zip(reference.per_qubit, sharded.per_qubit):
            assert a.result == b.result, a.qubit
        for a, b in zip(reference.pieces, sharded.pieces):
            assert a.qubits == b.qubits
            assert a.result.logical_errors == b.result.logical_errors, a.qubits
        assert (
            reference.joint_program_error_rate == sharded.joint_program_error_rate
        )

    def test_independent_estimates_unchanged_by_correlated_mode(self):
        program = LogicalProgram.bell_pairs(4)
        machine = _machine(grid=(2, 2))
        plain = run_program_experiment(
            program, machine, shots=512, seed=3, policy="surgery_only"
        )
        correlated = run_program_experiment(
            program, machine, shots=512, seed=3, policy="surgery_only",
            correlated=True,
        )
        assert plain.pieces is None and correlated.pieces is not None
        for a, b in zip(plain.per_qubit, correlated.per_qubit):
            assert a.result == b.result
        assert plain.program_error_rate == correlated.program_error_rate

    def test_pieces_partition_and_joint_product(self):
        result = run_program_experiment(
            LogicalProgram.bell_pairs(4),
            _machine(grid=(2, 2)),
            shots=512,
            seed=0,
            policy="surgery_only",
            correlated=True,
        )
        assert sorted(q for piece in result.pieces for q in piece.qubits) == [0, 1, 2, 3]
        assert all(len(piece.qubits) == 2 for piece in result.pieces)
        assert result.uncovered_windows == 0
        survival = 1.0
        for piece in result.pieces:
            survival *= 1.0 - piece.logical_error_rate
        assert result.joint_program_error_rate == pytest.approx(1.0 - survival)
        lo, hi = result.joint_confidence_interval
        assert lo <= result.joint_program_error_rate <= hi

    def test_oversized_surgery_component_falls_back_to_independent(self):
        result = run_program_experiment(
            LogicalProgram.ghz(3),
            _machine(grid=(2, 2)),
            shots=256,
            seed=0,
            policy="surgery_only",
            correlated=True,
        )
        assert all(len(piece.qubits) == 1 for piece in result.pieces)
        assert result.uncovered_windows == 2
        assert result.joint_program_error_rate == pytest.approx(
            result.program_error_rate
        )

    def test_no_surgery_means_all_single_pieces(self):
        # auto policy co-locates the pairs: every CNOT is transversal
        result = run_program_experiment(
            LogicalProgram.bell_pairs(2),
            _machine(grid=(1, 1)),
            shots=128,
            seed=0,
            policy="auto",
            correlated=True,
        )
        assert all(len(piece.qubits) == 1 for piece in result.pieces)
        assert result.uncovered_windows == 0

    def test_decode_stats_include_joint_pieces_and_balance(self, decode_totals):
        run_program_experiment(
            LogicalProgram.bell_pairs(4),
            _machine(grid=(2, 2)),
            shots=512,
            seed=0,
            policy="surgery_only",
            correlated=True,
        )
        tiers, unique, shots = decode_totals()
        assert set(tiers) <= set(TIER_NAMES)
        assert sum(tiers.values()) == unique
        # 4 independent runs + 2 joint pieces
        assert shots == 512 * 6

    def test_compare_architectures_shares_joint_caches(self):
        comparison = compare_architectures(
            LogicalProgram.bell_pairs(4),
            distances=(3,),
            shots=256,
            policy="surgery_only",
            correlated=True,
            program_name="pairs",
        )
        assert comparison.joint_cache.hits > 0
        assert comparison.joint_graph_cache.hits > 0
        rows = comparison.correlated_table_rows()
        assert len(rows) == 4
        headers = comparison.CORRELATED_TABLE_HEADERS
        assert len(rows[0]) == len(headers)

    def test_uncorrelated_sweep_has_no_joint_caches(self):
        comparison = compare_architectures(
            LogicalProgram.bell_pairs(2),
            distances=(3,),
            embeddings=("natural",),
            refresh_policies=("dram",),
            shots=64,
            program_name="pairs",
        )
        assert comparison.joint_cache is None
        with pytest.raises(ValueError, match="correlated"):
            comparison.correlated_table_rows()
        with pytest.raises(ValueError, match="correlated"):
            comparison.rows[0].joint_program_error_rate

    def test_durable_correlated_compare_is_pinned(self, tmp_path):
        """Unit labels, counts and cache traffic of one durable compare.

        Resume finds a unit's completed blocks by its ledger label, so
        the labels (and the order units run in) are part of the ledger
        contract, alongside every count.
        """
        path = tmp_path / "pin.jsonl"
        with RunLedger(path, {"pin": "correlated compare"}) as ledger:
            comparison = compare_architectures(
                LogicalProgram.bell_pairs(4),
                distances=(3,),
                refresh_policies=("dram",),
                p=1e-3,
                shots=self.SHOTS,
                seed=7,
                policy="surgery_only",
                correlated=True,
                executor=DurableExecutor(ledger),
            )
        assert list(parse_ledger(path).units) == [
            f"{embedding}/dram/d3/{unit}"
            for embedding in ("compact", "natural")
            for unit in ("q0", "q1", "q2", "q3", "pair0:q0+q1", "pair1:q2+q3")
        ]
        counts = {
            row.embedding: (
                [q.result.logical_errors for q in row.per_qubit],
                [(piece.qubits, piece.result.logical_errors) for piece in row.pieces],
            )
            for row in comparison.rows
        }
        assert counts == {
            "compact": ([104, 96, 100, 94], [((0, 1), 77), ((2, 3), 99)]),
            "natural": ([17, 13, 24, 13], [((0, 1), 24), ((2, 3), 23)]),
        }
        caches = (
            comparison.lowering_cache,
            comparison.graph_cache,
            comparison.joint_cache,
            comparison.joint_graph_cache,
        )
        assert [cache.stats() for cache in caches] == [
            {"entries": 4, "hits": 4, "misses": 4},
            {"entries": 4, "hits": 4, "misses": 4},
            {"entries": 2, "hits": 2, "misses": 2},
            {"entries": 2, "hits": 2, "misses": 2},
        ]


class TestTTeleport:
    def test_structure(self):
        program = LogicalProgram.t_teleport(4)
        assert program.num_qubits == 4
        names = [op.name for op in program.ops]
        assert names.count("T") == 4  # two consumptions per data qubit
        assert names.count("CNOT") == 2
        assert names.count("MEASURE_Z") == 2
        with pytest.raises(ValueError):
            LogicalProgram.t_teleport(3)

    def test_registered_and_compiles(self):
        program = build_program("t", 2)
        schedule = compile_program(program, _machine(), policy="surgery_only")
        assert schedule.cnot_surgery == 1


class TestProgramThreshold:
    def test_pinned_crossing_smoke(self):
        """~50-line driver over compare_architectures (ROADMAP item):
        the p_program curves of d=3 and d=5 must cross inside the sweep
        at the canned seed (counts are bit-deterministic, so the band is
        a pinned regression, not a statistical hope)."""
        study = estimate_program_threshold(
            LogicalProgram.bell_pairs(2),
            physical_error_rates=(2e-3, 1.3e-2),
            distances=(3, 5),
            shots=256,
            seed=0,
            program_name="pairs",
        )
        assert set(study.rates) == {3, 5}
        assert all(len(rates) == 2 for rates in study.rates.values())
        # below threshold the larger distance wins, above it loses
        assert study.rates[5][0] < study.rates[3][0]
        assert study.rates[5][1] > study.rates[3][1]
        threshold = study.threshold_estimate()
        assert threshold is not None
        assert 2e-3 < threshold < 1.3e-2
        assert len(study.rows()) == 2

    @pytest.mark.parametrize("name, qubits, windows", [("ghz", 3, 2), ("pairs", 2, 0)])
    def test_records_uncovered_windows_per_point(self, name, qubits, windows):
        study = estimate_program_threshold(
            build_program(name, qubits), [2e-3], (3,), "natural", "dram",
            shots=64, correlated=True, policy="surgery_only",
        )
        assert study.uncovered_windows == {3: [windows]}
        assert len(study.uncovered_points()) == (1 if windows else 0)

    def test_unbracketed_returns_none(self):
        study = estimate_program_threshold(
            LogicalProgram.bell_pairs(2),
            physical_error_rates=(1.3e-2,),
            distances=(3, 5),
            shots=64,
            seed=0,
        )
        assert study.threshold_estimate() is None
