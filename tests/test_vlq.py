"""Tests for the program-level noisy Monte-Carlo pipeline (repro.vlq).

Three layers are covered:

* **timelines** — the compiler's per-qubit residence/refresh API that
  the lowering consumes (and the refresh audit now replays against);
* **lowering** — per-qubit timelines become noisy circuits whose
  noiseless versions are deterministic on the stabilizer tableau
  simulator (detectors AND observable), for both embeddings and bases;
* **campaign** — the multi-circuit engine run: bit-identical across
  worker counts, shape caches actually hit, tier accounting balances,
  packed and reference backends agree statistically.
"""

import pytest

from repro.analyze import tableau_oracle
from repro.core import LogicalProgram, Machine, compile_program
from repro.decoders import TIER_NAMES, BuildCache
from repro.noise import MEMORY_HARDWARE, ErrorModel
from repro.vlq import (
    LoweringSpec,
    build_program,
    compare_architectures,
    lower_timeline,
    run_program_experiment,
    timeline_shape,
)


def _machine(embedding="compact", grid=(2, 2), modes=10, distance=3):
    return Machine(
        stack_grid=grid, cavity_modes=modes, distance=distance, embedding=embedding
    )


def _model(p=2e-3):
    return ErrorModel(hardware=MEMORY_HARDWARE, p=p, scale_coherence=False)


def _clustered_program():
    """Three co-located qubits; a CNOT burst on two starves the third.

    The stored bystander (q2) accumulates refresh debt, so the compiler
    inserts REFRESH breaks and q2's timeline carries background refresh
    rounds — the interesting case for the DRAM-vs-none ablation.
    """
    program = LogicalProgram()
    program.alloc(0, 1, 2)
    for _ in range(6):
        program.cnot(0, 1)
    return program


class TestTimelines:
    def test_residences_cover_alloc_to_end(self):
        schedule = compile_program(LogicalProgram.bell_pairs(4), _machine())
        for q, timeline in schedule.qubit_timelines().items():
            assert timeline.ops[0].name == "ALLOC"
            first = timeline.residences[0]
            assert first.start == timeline.ops[0].end
            assert timeline.residences[-1].end == schedule.total_timesteps
            # contiguity: each interval starts where the previous ended
            for a, b in zip(timeline.residences, timeline.residences[1:]):
                assert b.start == a.end

    def test_stack_at_matches_residences(self):
        schedule = compile_program(LogicalProgram.bell_pairs(4), _machine())
        timeline = schedule.qubit_timeline(0)
        interval = timeline.residences[0]
        assert timeline.stack_at(interval.start) == interval.stack
        assert timeline.stack_at(interval.start - 1) is None

    def test_measured_qubit_residence_ends_at_measure(self):
        program = LogicalProgram().alloc(0, 1).cnot(0, 1).measure_z(0)
        schedule = compile_program(program, _machine())
        timeline = schedule.qubit_timeline(0)
        assert timeline.measured
        measure = [e for e in timeline.ops if e.name == "MEASURE_Z"][0]
        assert timeline.residences[-1].end == measure.end
        # segments stop before the measure window (readout is appended
        # by the lowering)
        for segment in timeline.segments():
            assert segment[0] in ("rounds", "idle", "refresh")

    def test_moved_qubit_has_two_residences(self):
        # Tiny capacity forces the qubits onto different stacks and the
        # CNOT onto the move-then-transversal path.
        program = LogicalProgram().alloc(0, 1).cnot(0, 1)
        machine = _machine(grid=(2, 1), modes=2)
        schedule = compile_program(program, machine)
        assert schedule.cnot_with_move == 1
        timeline = schedule.qubit_timeline(0)
        assert len(timeline.residences) == 2
        assert timeline.residences[0].stack != timeline.residences[1].stack

    def test_refresh_times_recorded_for_starved_resident(self):
        schedule = compile_program(_clustered_program(), _machine(grid=(1, 1), modes=6))
        assert schedule.refresh_violations == 0
        assert schedule.refresh_times[2], "stored bystander must get refresh rounds"
        assert any(
            s[0] == "refresh" for s in schedule.qubit_timeline(2).segments()
        )
        # the no-refresh view folds them back into idle windows
        ablated = schedule.qubit_timeline(2).segments(include_refreshes=False)
        assert all(s[0] != "refresh" for s in ablated)

    def test_segments_merge_adjacent_op_windows(self):
        program = LogicalProgram().alloc(0, 1)
        program.cnot(0, 1).cnot(0, 1)  # back-to-back, no gap
        schedule = compile_program(program, _machine(grid=(1, 1)))
        segments = schedule.qubit_timeline(0).segments()
        kinds = [s[0] for s in segments]
        assert ("rounds", "rounds") not in zip(kinds, kinds[1:])
        # ALLOC(1) + idle(1 step while q1 allocates) + CNOT+CNOT merged
        assert ("rounds", 2) in segments

    def test_segment_durations_sum_to_lifetime(self):
        schedule = compile_program(LogicalProgram.bell_pairs(4), _machine())
        for q, timeline in schedule.qubit_timelines().items():
            total = 0
            for segment in timeline.segments():
                total += segment[1] if segment[0] in ("rounds", "idle") else 1
            assert total == schedule.total_timesteps - timeline.ops[0].start


class TestLowering:
    @pytest.mark.parametrize("embedding", ["natural", "compact"])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_noiseless_lowering_is_deterministic(self, embedding, basis):
        """Detectors and observable must be deterministic without noise —
        the tableau-simulator check that rounds, refreshes, idles and
        readout compose into a valid memory experiment."""
        schedule = compile_program(_clustered_program(), _machine(grid=(1, 1), modes=6))
        spec = LoweringSpec(distance=3, embedding=embedding, basis=basis)
        model = ErrorModel(hardware=MEMORY_HARDWARE, p=0.0, scale_coherence=False)
        for q in (0, 2):  # an operand and the refresh-serviced bystander
            memory = lower_timeline(schedule.qubit_timeline(q), model, spec)
            assert tableau_oracle(memory.circuit, f"q{q}") == []

    def test_refresh_rounds_lower_into_circuit(self):
        schedule = compile_program(_clustered_program(), _machine(grid=(1, 1), modes=6))
        timeline = schedule.qubit_timeline(2)
        with_refresh = lower_timeline(
            timeline, _model(), LoweringSpec(3, "natural", refresh=True)
        )
        without = lower_timeline(
            timeline, _model(), LoweringSpec(3, "natural", refresh=False)
        )
        assert with_refresh.rounds == len(timeline.refreshes) + without.rounds

    def test_shape_key_identifies_identical_timelines(self):
        schedule = compile_program(LogicalProgram.bell_pairs(4), _machine())
        spec = LoweringSpec(3, "compact")
        shapes = [
            timeline_shape(schedule.qubit_timeline(q), spec) for q in range(4)
        ]
        assert shapes[0] == shapes[2] and shapes[1] == shapes[3]
        assert shapes[0] != shapes[1]

    def test_rejects_baseline_hardware(self):
        from repro.noise import BASELINE_HARDWARE

        schedule = compile_program(LogicalProgram.bell_pairs(2), _machine(grid=(1, 1)))
        model = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        with pytest.raises(ValueError, match="memory hardware"):
            lower_timeline(schedule.qubit_timeline(0), model, LoweringSpec(3, "natural"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoweringSpec(3, "diagonal")
        with pytest.raises(ValueError):
            LoweringSpec(3, "compact", basis="Y")
        with pytest.raises(ValueError):
            LoweringSpec(3, "compact", rounds_per_timestep=0)


class TestCampaign:
    SHOTS = 2100  # two full engine blocks plus a remainder

    def test_workers_do_not_change_counts(self):
        """Acceptance: bit-identical across --workers 1 and --workers 4."""
        program = LogicalProgram.bell_pairs(4)
        machine = _machine()
        reference = run_program_experiment(program, machine, shots=self.SHOTS, seed=7)
        sharded = run_program_experiment(
            program, machine, shots=self.SHOTS, seed=7, workers=4
        )
        for a, b in zip(reference.per_qubit, sharded.per_qubit):
            assert a.result == b.result, a.qubit
        assert reference.program_error_rate == sharded.program_error_rate

    def test_backends_agree_statistically(self):
        """Acceptance: the reference backend stays selectable as oracle."""
        program = LogicalProgram.bell_pairs(2)
        machine = _machine(grid=(1, 1))
        packed = run_program_experiment(
            program, machine, shots=4096, seed=5, backend="packed"
        )
        reference = run_program_experiment(
            program, machine, shots=4096, seed=5, backend="reference"
        )
        for a, b in zip(packed.per_qubit, reference.per_qubit):
            assert abs(a.result.logical_errors - b.result.logical_errors) <= max(
                12, 0.75 * b.result.logical_errors
            ), (a.qubit, a.result.logical_errors, b.result.logical_errors)

    def test_shape_caches_hit_on_symmetric_program(self):
        lowering = BuildCache("lowering")
        graphs = BuildCache("graphs")
        run_program_experiment(
            LogicalProgram.bell_pairs(4),
            _machine(),
            shots=256,
            lowering_cache=lowering,
            graph_cache=graphs,
        )
        assert lowering.hits > 0 and lowering.misses == 2
        assert graphs.hits > 0 and graphs.misses == 2

    def test_tier_accounting_balances(self, registry, decode_totals):
        result = run_program_experiment(
            LogicalProgram.bell_pairs(4), _machine(), shots=512
        )
        tiers, unique, shots = decode_totals()
        assert set(tiers) <= set(TIER_NAMES)
        assert sum(tiers.values()) == unique
        assert shots == 512 * 4
        # Every qubit ran as its own campaign unit.
        units = registry.snapshot()["repro_campaign_units_total"]["values"]
        assert units == {"qubit": len(result.per_qubit)} == {"qubit": 4}

    def test_refresh_ablation_hurts_lossy_storage(self):
        """Dropping DRAM refresh leaves stored qubits uncorrected.

        The trade-off is real on both sides: each refresh round costs
        gate noise, so it pays exactly when cavity idling is the larger
        hazard.  With a lossy cavity (T1 cut to 30 µs) the starved
        bystander accumulates multi-error idle windows that defeat the
        code unless the background refresh keeps correcting it.
        """
        program = LogicalProgram()
        program.alloc(0, 1, 2)
        for _ in range(12):
            program.cnot(0, 1)
        machine = _machine(grid=(1, 1), modes=6)
        model = _model().with_(t1_cavity_override=200e-6)
        dram = run_program_experiment(
            program, machine, model, shots=2048, refresh="dram"
        )
        none = run_program_experiment(
            program, machine, model, shots=2048, refresh="none"
        )
        q2_dram = dram.per_qubit[2].result
        q2_none = none.per_qubit[2].result
        assert dram.schedule.refresh_times[2]
        # Counts are bit-deterministic at fixed seed, so the strict
        # inequality is a pinned regression, not a statistical flake
        # (measured margin ~11%: 558 vs 620 errors of 2048).
        assert q2_none.logical_errors > q2_dram.logical_errors

    def test_program_error_rate_combines_per_qubit(self):
        result = run_program_experiment(
            LogicalProgram.bell_pairs(4), _machine(), shots=512
        )
        assert result.program_error_rate >= result.worst_qubit_rate
        survival = 1.0
        for qubit in result.per_qubit:
            survival *= 1.0 - qubit.logical_error_rate
        assert result.program_error_rate == pytest.approx(1.0 - survival)
        lo, hi = result.confidence_interval
        assert lo <= result.program_error_rate <= hi

    def test_rejects_unknown_refresh_policy(self):
        with pytest.raises(ValueError, match="refresh"):
            run_program_experiment(
                LogicalProgram.bell_pairs(2), _machine(), shots=64, refresh="maybe"
            )

    def test_compare_architectures_sweeps_and_shares_caches(self, decode_totals):
        comparison = compare_architectures(
            LogicalProgram.bell_pairs(4),
            distances=(3,),
            shots=256,
            program_name="pairs",
        )
        assert len(comparison.rows) == 4  # 2 embeddings x 2 refresh policies
        schemes = {(r.embedding, r.refresh) for r in comparison.rows}
        assert schemes == {
            ("compact", "dram"),
            ("compact", "none"),
            ("natural", "dram"),
            ("natural", "none"),
        }
        assert comparison.lowering_cache.hits > 0
        assert comparison.graph_cache.hits > 0
        tiers, unique, _ = decode_totals()
        assert sum(tiers.values()) == unique
        assert len(comparison.table_rows()) == 4

    def test_build_program(self):
        assert build_program("pairs", 4).num_qubits == 4
        assert build_program("ghz", 3).num_qubits == 3
        with pytest.raises(ValueError):
            build_program("vibes", 4)
        with pytest.raises(ValueError):
            LogicalProgram.bell_pairs(3)
