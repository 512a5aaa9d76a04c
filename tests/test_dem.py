"""Tests for detector-error-model extraction.

Two oracles check the DEM, which is read off the packed sampler's
symptom table.  Brute-force equivalence: for every elementary fault of
a (small) noisy circuit, inject the corresponding Pauli explicitly into
a noiseless copy, run the frame simulator, and compare the flipped
detectors with what the DEM predicted.  And the instruction-level
backward pass in ``dem_oracle`` must give exactly the same fault list —
same tuples, same order, bit-identical probabilities — on every circuit
family the DEM's callers build.
"""

import numpy as np
import pytest

from dem_oracle import oracle_faults
from repro.circuits import Circuit, GateKind
from repro.dem import DetectorErrorModel, FaultMechanism
from repro.noise import BASELINE_HARDWARE, MEMORY_HARDWARE, ErrorModel
from repro.sim import sample_detection_data
from repro.sim.compiled import CompiledCircuit
from repro.surface_code import baseline_memory_circuit
from repro.arch import compact_memory_circuit, natural_memory_circuit

_PAULI_OPS = {"X": ("X",), "Y": ("X", "Z"), "Z": ("Z",)}


def inject_and_observe(circuit, position, letter_by_target):
    """Replace all noise with one explicit Pauli at ``position``."""
    probe = Circuit(circuit.num_qubits)
    for i, ins in enumerate(circuit.instructions):
        if i == position:
            for target, letter in letter_by_target.items():
                for op in _PAULI_OPS[letter]:
                    probe.append(op, (target,))
        if ins.kind in (GateKind.NOISE1, GateKind.NOISE2):
            continue
        if ins.kind is GateKind.MEASURE:
            probe.measure(*ins.targets)
        else:
            probe.append(ins.name, ins.targets, ins.args)
    probe.detectors = list(circuit.detectors)
    probe.observables = list(circuit.observables)
    data = sample_detection_data(probe, shots=1, seed=0)
    dets = tuple(np.nonzero(data.detectors[0])[0].tolist())
    obs = tuple(np.nonzero(data.observables[0])[0].tolist())
    return dets, obs


def brute_force_check(circuit, max_locations=200):
    """Compare the DEM against explicit injection."""
    dem = DetectorErrorModel(circuit)
    predicted = {
        (f.detectors, f.observables) for f in dem.faults
    }
    observed = set()
    checked = 0
    for position, ins in enumerate(circuit.instructions):
        if ins.kind is GateKind.NOISE1:
            letters = (
                ("X", "Y", "Z") if ins.name == "DEPOLARIZE1" else (ins.name[0],)
            )
            for q in ins.targets:
                for letter in letters:
                    dets, obs = inject_and_observe(circuit, position, {q: letter})
                    if dets or obs:
                        observed.add((dets, obs))
                    checked += 1
        elif ins.kind is GateKind.NOISE2:
            for a, b in ins.target_groups():
                for la in ("I", "X", "Y", "Z"):
                    for lb in ("I", "X", "Y", "Z"):
                        if la == lb == "I":
                            continue
                        letters = {}
                        if la != "I":
                            letters[a] = la
                        if lb != "I":
                            letters[b] = lb
                        dets, obs = inject_and_observe(circuit, position, letters)
                        if dets or obs:
                            observed.add((dets, obs))
                        checked += 1
        if checked > max_locations:
            break
    assert observed <= predicted, (
        f"injection found symptoms the DEM missed: {sorted(observed - predicted)[:5]}"
    )
    return checked


class TestBruteForceEquivalence:
    def test_baseline_d2(self):
        em = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        circuit = baseline_memory_circuit(2, em, rounds=2).circuit
        assert brute_force_check(circuit, max_locations=3000) > 100

    def test_baseline_d3_sampled(self):
        em = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        circuit = baseline_memory_circuit(3, em, rounds=2).circuit
        brute_force_check(circuit, max_locations=400)

    def test_compact_d3_sampled(self):
        em = ErrorModel(hardware=MEMORY_HARDWARE, p=1e-3)
        circuit = compact_memory_circuit(3, em, rounds=2).circuit
        brute_force_check(circuit, max_locations=400)


class TestMechanismStructure:
    @pytest.fixture()
    def baseline_dem(self):
        em = ErrorModel(hardware=BASELINE_HARDWARE, p=2e-3)
        return DetectorErrorModel(baseline_memory_circuit(3, em).circuit)

    def test_no_undetectable_logicals(self, baseline_dem):
        assert baseline_dem.undetectable_logical_probability("Z") == 0.0

    def test_all_memory_circuits_have_no_undetectable_logicals(self):
        em = ErrorModel(hardware=MEMORY_HARDWARE, p=2e-3)
        for build in (natural_memory_circuit, compact_memory_circuit):
            for schedule in ("all_at_once", "interleaved"):
                for basis in ("Z", "X"):
                    dem = DetectorErrorModel(
                        build(3, em, basis=basis, schedule=schedule).circuit
                    )
                    assert dem.undetectable_logical_probability(basis) == 0.0, (
                        build.__name__,
                        schedule,
                        basis,
                    )

    def test_probabilities_in_range(self, baseline_dem):
        for fault in baseline_dem.faults:
            assert 0.0 < fault.probability < 0.5

    def test_projection_splits_by_basis(self, baseline_dem):
        z_faults = baseline_dem.projected("Z")
        z_count = len(baseline_dem.basis_detectors("Z"))
        for fault in z_faults:
            for det in fault.detectors:
                assert 0 <= det < z_count

    def test_max_two_detectors_per_basis(self, baseline_dem):
        # Surface-code circuit faults are matchable after basis projection.
        for basis in ("X", "Z"):
            sizes = [len(f.detectors) for f in baseline_dem.projected(basis)]
            assert max(sizes) <= 2

    def test_projection_rejects_bad_basis(self, baseline_dem):
        with pytest.raises(ValueError):
            baseline_dem.projected("Y")

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize(
        "build,hardware",
        [(baseline_memory_circuit, BASELINE_HARDWARE), (compact_memory_circuit, MEMORY_HARDWARE)],
    )
    def test_fault_list_matches_full_detector_scan(self, build, hardware, d):
        # Exactly the oracle's fault list: same tuples, same order and
        # bit-identical probabilities.
        circuit = build(d, ErrorModel(hardware=hardware, p=2e-3)).circuit
        faults = DetectorErrorModel(circuit).faults
        assert faults == oracle_faults(circuit)
        assert all(type(i) is int for f in faults for i in f.detectors + f.observables)


class TestOracleAgreement:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("schedule", ["all_at_once", "interleaved"])
    @pytest.mark.parametrize("build", [natural_memory_circuit, compact_memory_circuit])
    def test_embedded_memory_d3(self, build, schedule, basis):
        model = ErrorModel(hardware=MEMORY_HARDWARE, p=2e-3)
        circuit = build(3, model, basis=basis, schedule=schedule).circuit
        assert DetectorErrorModel(circuit).faults == oracle_faults(circuit)

    def test_baseline_memory_d11(self):
        model = ErrorModel(hardware=BASELINE_HARDWARE, p=1e-3)
        circuit = baseline_memory_circuit(11, model).circuit
        assert DetectorErrorModel(circuit).faults == oracle_faults(circuit)

    def test_program_lowerings(self, program_lowerings):
        assert len(program_lowerings) == 6
        for circuit, _ in program_lowerings:
            assert DetectorErrorModel(circuit).faults == oracle_faults(circuit)

    def test_passed_compiled_circuit_gives_the_same_model(self, program_lowerings):
        for circuit, sampler in program_lowerings:
            assert isinstance(sampler, CompiledCircuit)
            compiled_here = DetectorErrorModel(circuit).faults
            assert DetectorErrorModel(circuit, sampler).faults == compiled_here


def _faults(circuit: Circuit) -> list[FaultMechanism]:
    return DetectorErrorModel(circuit).faults


class TestCombination:
    def test_xor_combination(self):
        c = Circuit()
        # Two independent X errors on the same qubit, then measure.
        c.x_error([0], 0.1)
        c.x_error([0], 0.2)
        c.measure(0)
        c.add_detector([0], basis="Z")
        (fault,) = _faults(c)
        assert fault.detectors == (0,)
        assert fault.probability == pytest.approx(0.1 * 0.8 + 0.2 * 0.9)

    def test_reset_severs_earlier_faults(self):
        c = Circuit()
        c.x_error([0], 0.25)
        c.reset(0)
        c.measure(0)
        c.add_detector([0], basis="Z")
        assert _faults(c) == []

    def test_measurement_flip_mechanism(self):
        c = Circuit()
        c.measure(0, flip_probability=0.125)
        c.add_detector([0], basis="Z")
        assert _faults(c) == [FaultMechanism(0.125, (0,), ())]

    def test_z_error_invisible_to_z_measurement(self):
        c = Circuit()
        c.z_error([0], 0.25)
        c.measure(0)
        c.add_detector([0], basis="Z")
        assert _faults(c) == []

    def test_hadamard_rotates_sensitivity(self):
        c = Circuit()
        c.z_error([0], 0.25)
        c.h(0)
        c.measure(0)
        c.add_detector([0], basis="Z")
        assert _faults(c) == [FaultMechanism(0.25, (0,), ())]

    def test_cx_propagates_x_to_target(self):
        c = Circuit()
        c.x_error([0], 0.25)
        c.cx(0, 1)
        c.measure(0, 1)
        c.add_detector([0], basis="Z")
        c.add_detector([1], basis="Z")
        assert _faults(c) == [FaultMechanism(0.25, (0, 1), ())]

    def test_swap_moves_sensitivity(self):
        c = Circuit()
        c.x_error([0], 0.25)
        c.swap(0, 1)
        c.measure(1)
        c.add_detector([0], basis="Z")
        assert _faults(c) == [FaultMechanism(0.25, (0,), ())]

    def test_observable_bit_layout(self):
        c = Circuit()
        c.x_error([0], 0.25)
        c.measure(0)
        c.add_detector([0], basis="Z")
        c.add_observable([0], basis="Z")
        assert _faults(c) == [FaultMechanism(0.25, (0,), (0,))]
