"""Tests for the precompiled symptom-table sampling pipeline.

The packed backend's contracts:

- **Bit identity with frame propagation.**  ``CompiledCircuit.sample``
  XORs precomputed symptom-table rows; the forward uint64 bit-plane
  frame simulator it replaced is kept here as the oracle, and under real
  noise (0 < p < 1) both must give the same bits for the same seed.
- **Pinned stream.**  sha256 digests of sampled data recorded from the
  forward sampler, so the canonical packed stream cannot drift.
- **Exact frame equality** with the reference bool-array simulator on the
  deterministic part: any Clifford circuit whose noise channels fire with
  probability 0 or 1 produces bit-identical detector/observable data on
  both backends (no randomness reaches the outcome, whatever each backend
  draws).
- **Statistical agreement** with the reference under real noise at
  matched seeds: the two backends define different canonical random
  streams, so rates (not bits) must match.
- **One error model.**  The detector error model read off the symptom
  table equals the instruction-level backward pass kept in
  ``dem_oracle``, float for float.
- A pinned end-to-end logical-error-rate regression at d=3 for both
  backends and both decoders, so a silent semantics change cannot hide
  behind statistics.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from dem_oracle import oracle_faults
from repro.circuits import Circuit
from repro.core import Machine, compile_program
from repro.dem import DetectorErrorModel
from repro.noise import BASELINE_HARDWARE, MEMORY_HARDWARE, ErrorModel
from repro.sim import compile_circuit, run_memory_experiment
from repro.sim.compiled import (
    _OP_CX,
    _OP_CZ,
    _OP_DEP1,
    _OP_DEP2,
    _OP_H,
    _OP_MEASURE,
    _OP_RESET,
    _OP_S,
    _OP_SWAP,
    _OP_XERR,
    _OP_YERR,
    _OP_ZERR,
    _bernoulli_positions,
    _lower,
)
from repro.sim.frame import DetectionData, sample_detection_data
from repro.sim.stats import wilson_interval
from repro.surface_code import baseline_memory_circuit
from repro.vlq.campaign import build_program
from repro.vlq.lowering import LoweringSpec, lower_timeline
from repro.vlq.surgery import JointLoweringSpec, lower_joint_timelines, partition_surgery


def _assert_backends_bit_identical(circuit: Circuit, shots: int = 130) -> None:
    """Both backends must produce identical detection data (any seeds)."""
    reference = sample_detection_data(circuit, shots, 0)
    packed = compile_circuit(circuit).sample(shots, 1)
    assert np.array_equal(reference.detectors, packed.detectors)
    assert np.array_equal(reference.observables, packed.observables)


# ----------------------------------------------------------------------
# The forward bit-plane sampler: the symptom table's oracle
# ----------------------------------------------------------------------
def _scatter_xor(
    plane: np.ndarray, rows: np.ndarray, positions: np.ndarray, shots: int
) -> None:
    """XOR hit bits into ``plane`` (``(num_qubits, words)`` uint64).

    ``positions`` are flat indices into the C-order ``(len(rows), shots)``
    grid.  ``bitwise_xor.at`` is unbuffered, so duplicate qubit rows (a
    fused op hitting the same qubit twice) accumulate correctly.
    """
    if positions.size == 0:
        return
    r, s = np.divmod(positions, shots)
    flat_index = rows[r] * plane.shape[1] + (s >> 6)
    bits = np.left_shift(np.uint64(1), (s & 63).astype(np.uint64))
    np.bitwise_xor.at(plane.reshape(-1), flat_index, bits)


def _transfer_matrix(groups, num_measurements: int) -> csr_matrix:
    """Sparse measurement→annotation matrix; parity is the product ``& 1``."""
    rows = [i for i, group in enumerate(groups) for _ in group.measurements]
    cols = [m for group in groups for m in group.measurements]
    data = np.ones(len(rows), dtype=np.int64)
    return csr_matrix((data, (rows, cols)), shape=(len(groups), num_measurements))


def _forward_sample(circuit: Circuit, shots: int, seed: int) -> DetectionData:
    """Propagate uint64 X/Z frame planes (64 shots per word) forward.

    Consumes the packed stream exactly as the sampler does, scatters the
    hits into the planes, records measured X frames and reduces the record
    with GF(2) transfer matrices.
    """
    rng = np.random.default_rng(seed)
    words = (shots + 63) >> 6
    x = np.zeros((max(circuit.num_qubits, 1), words), dtype=np.uint64)
    z = np.zeros_like(x)
    record = np.zeros((circuit.num_measurements, words), dtype=np.uint64)
    for code, cols, param in _lower(circuit):
        if code == _OP_DEP1:
            (q,) = cols
            pos = _bernoulli_positions(rng, len(q) * shots, param)
            if pos.size:
                which = rng.integers(0, 3, pos.size)
                _scatter_xor(x, q, pos[which != 2], shots)  # X or Y
                _scatter_xor(z, q, pos[which != 0], shots)  # Y or Z
        elif code == _OP_DEP2:
            a, b = cols
            pos = _bernoulli_positions(rng, len(a) * shots, param)
            if pos.size:
                which = rng.integers(1, 16, pos.size)  # skip I⊗I
                pa, pb = which >> 2, which & 3
                _scatter_xor(x, a, pos[(pa == 1) | (pa == 2)], shots)
                _scatter_xor(z, a, pos[(pa == 2) | (pa == 3)], shots)
                _scatter_xor(x, b, pos[(pb == 1) | (pb == 2)], shots)
                _scatter_xor(z, b, pos[(pb == 2) | (pb == 3)], shots)
        elif code == _OP_CX:
            c, t = cols
            x[t] ^= x[c]
            z[c] ^= z[t]
        elif code == _OP_MEASURE:
            q, slots = cols
            outcome = x[q]  # fancy index -> fresh copy
            if param:
                pos = _bernoulli_positions(rng, len(q) * shots, param)
                _scatter_xor(outcome, np.arange(len(q)), pos, shots)
            record[slots] = outcome
        elif code == _OP_H:
            (q,) = cols
            swapped = x[q]
            x[q] = z[q]
            z[q] = swapped
        elif code == _OP_S:
            (q,) = cols
            z[q] ^= x[q]
        elif code == _OP_CZ:
            a, b = cols
            z[b] ^= x[a]
            z[a] ^= x[b]
        elif code == _OP_SWAP:
            a, b = cols
            swapped = x[a]
            x[a] = x[b]
            x[b] = swapped
            swapped = z[a]
            z[a] = z[b]
            z[b] = swapped
        elif code == _OP_RESET:
            (q,) = cols
            x[q] = 0
            z[q] = 0
        elif code == _OP_XERR:
            (q,) = cols
            _scatter_xor(x, q, _bernoulli_positions(rng, len(q) * shots, param), shots)
        elif code == _OP_YERR:
            (q,) = cols
            pos = _bernoulli_positions(rng, len(q) * shots, param)
            _scatter_xor(x, q, pos, shots)
            _scatter_xor(z, q, pos, shots)
        elif code == _OP_ZERR:
            (q,) = cols
            _scatter_xor(z, q, _bernoulli_positions(rng, len(q) * shots, param), shots)
        else:  # pragma: no cover
            raise NotImplementedError(code)
    bits = np.unpackbits(
        record.astype("<u8", copy=False).view(np.uint8),
        axis=1,
        bitorder="little",
        count=shots,
    )
    m = circuit.num_measurements
    detectors = (_transfer_matrix(circuit.detectors, m) @ bits) & 1
    observables = (_transfer_matrix(circuit.observables, m) @ bits) & 1
    return DetectionData(detectors.T.astype(bool), observables.T.astype(bool))


def _assert_matches_oracle(circuit: Circuit, shots: int, seed: int) -> None:
    packed = compile_circuit(circuit).sample(shots, seed)
    oracle = _forward_sample(circuit, shots, seed)
    assert packed.detectors.shape == oracle.detectors.shape
    assert packed.observables.shape == oracle.observables.shape
    assert np.array_equal(packed.detectors, oracle.detectors)
    assert np.array_equal(packed.observables, oracle.observables)


# ----------------------------------------------------------------------
# Deterministic part: exact equality
# ----------------------------------------------------------------------
class TestExactEquivalence:
    def test_cx_chain_within_one_instruction_stays_sequential(self):
        # CX 0 1 followed by CX 1 2 in a single instruction must chain:
        # naive whole-row vectorization would read the pre-update x[1].
        c = Circuit()
        c.x_error([0], 1.0)
        c.cx(0, 1, 1, 2)
        c.measure(0, 1, 2)
        for m in range(3):
            c.add_detector([m])
        c.add_observable([2])
        _assert_backends_bit_identical(c)

    def test_repeated_h_is_identity(self):
        # H H on the same qubit must not fuse into a single swap.
        c = Circuit()
        c.z_error([0], 1.0)
        c.h(0)
        c.h(0)
        c.h(0)
        c.measure(0)
        c.add_detector([0])
        _assert_backends_bit_identical(c)

    def test_repeated_s_accumulates(self):
        # S S maps Z-frame twice: z ^= x applied twice is identity on z.
        c = Circuit()
        c.x_error([0], 1.0)
        c.s(0)
        c.s(0)
        c.h(0)
        c.measure(0)
        c.add_detector([0])
        _assert_backends_bit_identical(c)

    def test_deterministic_gate_zoo(self):
        c = Circuit()
        c.x_error([0, 2], 1.0)
        c.z_error([1], 1.0)
        c.h(1)
        c.cz(0, 1)
        c.swap(1, 2)
        c.cx(2, 3)
        c.reset(0)
        c.append("Y_ERROR", (3,), (1.0,))
        c.measure(0, 1, 2, 3, flip_probability=1.0)
        c.measure(0, 1, 2, 3)
        for m in range(8):
            c.add_detector([m])
        c.add_observable([3, 7])
        _assert_backends_bit_identical(c)

    def test_noiseless_memory_circuit_is_quiet(self):
        em = ErrorModel(
            hardware=BASELINE_HARDWARE,
            p=0.0,
            scale_coherence=False,
            t1_transmon_override=float("inf"),
        )
        memory = baseline_memory_circuit(3, em)
        data = compile_circuit(memory.circuit).sample(96, 0)
        assert not data.detectors.any()
        assert not data.observables.any()


# ----------------------------------------------------------------------
# Hypothesis: random Clifford circuits with deterministic noise
# ----------------------------------------------------------------------
_N_QUBITS = 4


@st.composite
def deterministic_circuits(draw):
    """Random Clifford circuits whose errors fire with probability 0 or 1."""
    c = Circuit(_N_QUBITS)
    qubit = st.integers(0, _N_QUBITS - 1)
    pairs = st.tuples(qubit, qubit).filter(lambda ab: ab[0] != ab[1])
    n_ops = draw(st.integers(1, 24))
    for _ in range(n_ops):
        op = draw(st.sampled_from(
            ["H", "S", "S_DAG", "CX", "CZ", "SWAP", "R",
             "X_ERROR", "Y_ERROR", "Z_ERROR", "M"]
        ))
        if op in ("CX", "CZ", "SWAP"):
            a, b = draw(pairs)
            c.append(op, (a, b))
        elif op in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
            c.append(op, (draw(qubit),), (draw(st.sampled_from([0.0, 1.0])),))
        elif op == "M":
            c.measure(draw(qubit),
                      flip_probability=draw(st.sampled_from([0.0, 1.0])))
        else:
            c.append(op, (draw(qubit),))
    if not c.num_measurements:
        c.measure(0)
    measurement = st.integers(0, c.num_measurements - 1)
    for _ in range(draw(st.integers(1, 4))):
        c.add_detector(draw(st.lists(measurement, min_size=1, max_size=3)))
    c.add_observable(draw(st.lists(measurement, min_size=1, max_size=3)))
    return c


class TestHypothesisEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(deterministic_circuits())
    def test_backends_bit_identical_on_deterministic_circuits(self, circuit):
        _assert_backends_bit_identical(circuit, shots=70)


# ----------------------------------------------------------------------
# Noisy bit identity: symptom table vs forward frame propagation
# ----------------------------------------------------------------------
#: A few values, so consecutive noise instructions often share p and fuse.
_NOISE_P = st.sampled_from([0.05, 0.3, 0.7])
_SHOTS = st.sampled_from([1, 63, 64, 65, 130])


@st.composite
def noisy_circuits(draw):
    """Random Clifford circuits whose every channel fires with 0 < p < 1.

    Target lists may repeat a qubit (or a ``DEPOLARIZE2`` pair), so fused
    noise ops hit one qubit twice and fused measurements record one qubit
    twice; detectors may reference one measurement twice.
    """
    c = Circuit(_N_QUBITS)
    qubit = st.integers(0, _N_QUBITS - 1)
    qubits = st.lists(qubit, min_size=1, max_size=4)
    pairs = st.tuples(qubit, qubit).filter(lambda ab: ab[0] != ab[1])
    for _ in range(draw(st.integers(1, 30))):
        op = draw(st.sampled_from(
            ["H", "S", "S_DAG", "CX", "CZ", "SWAP", "R", "M", "DEPOLARIZE1",
             "DEPOLARIZE2", "X_ERROR", "Y_ERROR", "Z_ERROR"]
        ))
        if op in ("CX", "CZ", "SWAP"):
            c.append(op, draw(pairs))
        elif op == "DEPOLARIZE2":
            chosen = draw(st.lists(pairs, min_size=1, max_size=3))
            c.append(op, [q for pair in chosen for q in pair], (draw(_NOISE_P),))
        elif op in ("DEPOLARIZE1", "X_ERROR", "Y_ERROR", "Z_ERROR"):
            c.append(op, draw(qubits), (draw(_NOISE_P),))
        elif op == "M":
            c.measure(*draw(qubits),
                      flip_probability=draw(st.sampled_from([0.0, 0.05, 0.3])))
        else:
            c.append(op, (draw(qubit),))
    if not c.num_measurements:
        c.measure(0)
    measurement = st.integers(0, c.num_measurements - 1)
    for _ in range(draw(st.integers(1, 5))):
        c.add_detector(draw(st.lists(measurement, min_size=1, max_size=4)))
    for _ in range(draw(st.integers(0, 2))):
        c.add_observable(draw(st.lists(measurement, min_size=1, max_size=4)))
    return c


class TestOracleIdentity:
    @settings(max_examples=80, deadline=None)
    @given(noisy_circuits(), _SHOTS, st.integers(0, 2**32 - 1))
    def test_sample_matches_forward_frames_on_noisy_circuits(
        self, circuit, shots, seed
    ):
        _assert_matches_oracle(circuit, shots, seed)

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 130])
    def test_repeated_targets_and_references(self, shots):
        c = Circuit(3)
        c.append("DEPOLARIZE1", (0, 0, 1), (0.3,))  # qubit 0 twice in one op
        c.append("DEPOLARIZE2", (0, 1, 0, 1), (0.3,))  # pair (0, 1) twice
        c.append("X_ERROR", (2,), (0.3,))
        c.append("X_ERROR", (2,), (0.3,))  # fuses with the line above
        c.cx(0, 2)
        c.append("Y_ERROR", (1, 1), (0.3,))
        c.h(1)
        c.append("Z_ERROR", (1, 2), (0.3,))
        c.measure(0, 0, 1, flip_probability=0.3)  # qubit 0 recorded twice
        c.measure(2, flip_probability=0.3)  # fuses: same flip probability
        c.add_detector([0, 0, 2])  # measurement 0 twice: cancels
        c.add_detector([0, 1])
        c.add_detector([3])
        c.add_observable([1, 3, 3])
        assert len([op for op in _lower(c) if op[0] == _OP_MEASURE]) == 1
        for seed in range(4):
            _assert_matches_oracle(c, shots, seed)

    @pytest.mark.parametrize("distance", [3, 5])
    def test_memory_circuits_match_oracle(self, distance):
        memory = baseline_memory_circuit(
            distance, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        for shots, seed in ((130, 0), (1024, 3)):
            _assert_matches_oracle(memory.circuit, shots, seed)

    def test_no_annotations(self):
        c = Circuit(2)
        c.append("DEPOLARIZE1", (0, 1), (0.5,))
        c.measure(0, 1, flip_probability=0.5)
        data = compile_circuit(c).sample(65, 0)
        assert data.detectors.shape == (65, 0)
        assert data.observables.shape == (65, 0)


# ----------------------------------------------------------------------
# Detector error model: symptom table vs the instruction-level pass
# ----------------------------------------------------------------------
class TestFaultMechanisms:
    @settings(max_examples=80, deadline=None)
    @given(noisy_circuits())
    def test_dem_matches_backward_pass_oracle_on_noisy_circuits(self, circuit):
        # Same tuples, same order, bit-identical probabilities.
        assert DetectorErrorModel(circuit).faults == oracle_faults(circuit)


# ----------------------------------------------------------------------
# Pinned packed stream: sha256 of detectors.tobytes() + observables.tobytes()
# ----------------------------------------------------------------------
def _program_lowerings() -> dict[str, Circuit]:
    """Compact d=3 lowerings of ``pairs(2)``: one qubit, one surgery pair."""
    machine = Machine(stack_grid=(2, 2), cavity_modes=MEMORY_HARDWARE.cavity_modes,
                      distance=3, embedding="compact")
    schedule = compile_program(build_program("pairs", 2), machine,
                               policy="surgery_only")
    model = ErrorModel(hardware=MEMORY_HARDWARE, p=1e-3, scale_coherence=False)
    single = lower_timeline(schedule.qubit_timeline(min(schedule.residences)),
                            model, LoweringSpec(distance=3, embedding="compact"))
    (qa, qb), spans = partition_surgery(schedule).pairs[0]
    joint = lower_joint_timelines(
        schedule.qubit_timeline(qa), schedule.qubit_timeline(qb), spans, model,
        JointLoweringSpec(distance=3, embedding="compact"),
    )
    return {"compact-single": single.circuit, "compact-joint": joint.circuit}


@pytest.fixture(scope="module")
def pinned_circuits() -> dict[str, Circuit]:
    circuits = {
        f"d{d}": baseline_memory_circuit(
            d, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        ).circuit
        for d in (3, 5)
    }
    circuits.update(_program_lowerings())
    return circuits


class TestPinnedStream:
    # Recorded from the forward bit-plane frame sampler, before the
    # symptom table replaced it; (circuit, shots, seed) -> sha256.
    PINNED = {
        ("d3", 1, 0): "34f72af4f1ef211b6e2570ba63415ee561114c97864212cd1bf62efff620735d",
        ("d3", 1, 7): "0504acaf1f32e00c54b7776efb029b020343323a112d3cdff50081d44b0fda61",
        ("d3", 1000, 0): "2deb4139ebd7162893982ef12e6ea3003605f9035b7e303a7d6ac029579bcd8b",
        ("d3", 1000, 7): "010edbf5749f7809e9622746ac269018ccdb426d01d24d281a7ded1abf28ba11",
        ("d3", 1024, 0): "3c77f9a0fe83c953f77d5fca1038aec17bc77f73ae355f2bef9ca8deb993185d",
        ("d3", 1024, 7): "1f8626a3dd3c06ba4b04984eb9520f2d0a8d2eb7f7682ef4fa22df14132fe3fa",
        ("d5", 1, 0): "1d1e00f1ba28ab36b7a67207afa3b40881274d0744bd22f170445fb255198672",
        ("d5", 1, 7): "de5e0449c10f231f8a1b45a07036460421c0f23d8a08920bea9d69d9c3459f10",
        ("d5", 1000, 0): "9ba2ed422327d084ccbe5b7acac0a6ff6a85af4e3d2d9ad7144790687b841919",
        ("d5", 1000, 7): "fd6f6c17e56777b9e48f1af06a8592820e60c0140f9d6651a2b69b6cd6b09810",
        ("d5", 1024, 0): "b2595b55889929d67c89c66667615d52d888856e11f86e7b00b41800b3d5699d",
        ("d5", 1024, 7): "670ed82f9b69512d42ba94f16b2cd7de9759d6131e3d9942b827422dad34c3dc",
        ("compact-single", 1, 0):
            "564985bcde06794d36ed628a9245e2e61a42624ba8ad3f3efb4a21495306d5c5",
        ("compact-single", 1, 7):
            "be50f32602323da2b31bf92ad7520b0ea0c587e655192c186942699e2851031f",
        ("compact-single", 1000, 0):
            "424e7ea2088c2ebe07de7e11ffca3c967968c3818eb406e023d64031bffcab60",
        ("compact-single", 1000, 7):
            "df372ee5026d3a868b4696158322c148d57f83bff7dffc5e029a44683949bb6e",
        ("compact-single", 1024, 0):
            "1f5c68c7e1ad3928ccce1162342590cb772498e692bc6419d769ac9c6cdc7b4b",
        ("compact-single", 1024, 7):
            "a07d609cf8a58bdda7a0c2ce13a0732015bf751973d6888684f6edda7a403e89",
        ("compact-joint", 1, 0):
            "9e45f4bbd61c1f7f522a11a7095c220f2b33af086ee0011c729d53c4f122e73e",
        ("compact-joint", 1, 7):
            "dd72fbec339dd421a68335f4b611f9b7e3e2682f84526d79c6b053d2c5ca64cd",
        ("compact-joint", 1000, 0):
            "f6cc9f112689a3ebbfbf53ed1a8ce7761a9c94d2435ee2b8d6ee5bd1152afdf3",
        ("compact-joint", 1000, 7):
            "bbce014919fe0d64cf54bfc2beb38abd18dedbaa2a4f6e37afc062d94a9efc7e",
        ("compact-joint", 1024, 0):
            "97aab144f1a0b6efef7a629c83e02fb495927740b363da43d54f4f88c5fc5af4",
        ("compact-joint", 1024, 7):
            "ed013fe56fd6d7f79c30b5f0c694b38f78fa2f821978edd2c810c5127f0c3e12",
    }

    @pytest.mark.parametrize("name", ["d3", "d5", "compact-single", "compact-joint"])
    def test_sample_digests(self, name, pinned_circuits):
        compiled = compile_circuit(pinned_circuits[name])
        for (circuit, shots, seed), expected in self.PINNED.items():
            if circuit != name:
                continue
            data = compiled.sample(shots, seed)
            digest = hashlib.sha256(
                data.detectors.tobytes() + data.observables.tobytes()
            ).hexdigest()
            assert digest == expected, (name, shots, seed)


# ----------------------------------------------------------------------
# Statistical agreement under real noise
# ----------------------------------------------------------------------
class TestStatisticalEquivalence:
    def test_depolarize1_flip_rate(self):
        # X and Y (2 of 3 kinds) flip a Z-basis measurement: rate = 2p/3.
        p = 0.3
        c = Circuit()
        c.append("DEPOLARIZE1", (0,), (p,))
        c.measure(0)
        c.add_detector([0])
        shots = 40_000
        hits = int(compile_circuit(c).sample(shots, 5).detectors.sum())
        lo, hi = wilson_interval(hits, shots)
        assert lo <= 2 * p / 3 <= hi

    def test_depolarize2_marginal(self):
        # Each qubit of a pair sees an X-component with rate 8p/15.
        p = 0.3
        c = Circuit()
        c.append("DEPOLARIZE2", (0, 1), (p,))
        c.measure(0, 1)
        c.add_detector([0])
        c.add_detector([1])
        shots = 40_000
        data = compile_circuit(c).sample(shots, 6)
        for col in range(2):
            lo, hi = wilson_interval(int(data.detectors[:, col].sum()), shots)
            assert lo <= 8 * p / 15 <= hi

    def test_measurement_flip_rate(self):
        c = Circuit()
        c.measure(0, flip_probability=0.2)
        c.add_detector([0])
        shots = 40_000
        hits = int(compile_circuit(c).sample(shots, 7).detectors.sum())
        lo, hi = wilson_interval(hits, shots)
        assert lo <= 0.2 <= hi

    def test_memory_circuit_detector_rates_match_reference(self):
        memory = baseline_memory_circuit(
            3, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        shots = 20_000
        reference = sample_detection_data(memory.circuit, shots, 0)
        packed = compile_circuit(memory.circuit).sample(shots, 0)
        # Column means are binomial with se ~ sqrt(p(1-p)/shots) ~ 2e-3;
        # 5 sigma on the difference of two independent estimates.
        diff = np.abs(reference.detectors.mean(0) - packed.detectors.mean(0))
        assert diff.max() < 0.015
        assert abs(reference.observables.mean() - packed.observables.mean()) < 0.015


# ----------------------------------------------------------------------
# Pinned end-to-end regression
# ----------------------------------------------------------------------
class TestPinnedRegression:
    # d=3 baseline, p=5e-3, 2048 shots, seed=7.  MWPM decodes on the
    # DEM's float weights, so a drift in its probabilities moves MWPM's
    # count before union-find's discretized one.
    PINNED = {
        ("unionfind", "packed"): 75,
        ("unionfind", "reference"): 79,
        ("mwpm", "packed"): 73,
        ("mwpm", "reference"): 78,
    }

    @pytest.mark.parametrize(
        "decoder,backend",
        [  # union-find keeps the test ids it was first pinned under
            pytest.param("unionfind", "packed", id="packed"),
            pytest.param("unionfind", "reference", id="reference"),
            pytest.param("mwpm", "packed", id="mwpm-packed"),
            pytest.param("mwpm", "reference", id="mwpm-reference"),
        ],
    )
    def test_d3_logical_error_count(self, decoder, backend):
        memory = baseline_memory_circuit(
            3, ErrorModel(hardware=BASELINE_HARDWARE, p=5e-3)
        )
        result = run_memory_experiment(
            memory, shots=2048, seed=7, decoder=decoder, backend=backend
        )
        assert result.logical_errors == self.PINNED[decoder, backend]


# ----------------------------------------------------------------------
# Lowering and primitive internals
# ----------------------------------------------------------------------
class TestLowering:
    def test_consecutive_disjoint_gates_fuse(self):
        c = Circuit()
        c.h(0)
        c.h(1)
        c.h(2)
        ops = _lower(c)
        assert len(ops) == 1
        np.testing.assert_array_equal(ops[0][1][0], [0, 1, 2])

    def test_colliding_gates_split(self):
        c = Circuit()
        c.h(0)
        c.h(0)
        assert len(_lower(c)) == 2

    def test_same_probability_noise_fuses_across_instructions(self):
        c = Circuit()
        c.x_error([0, 1], 0.01)
        c.x_error([2], 0.01)
        c.x_error([3], 0.02)  # different p: new op
        ops = _lower(c)
        assert len(ops) == 2
        np.testing.assert_array_equal(ops[0][1][0], [0, 1, 2])

    def test_pauli_gates_lower_to_nothing(self):
        c = Circuit()
        c.x(0)
        c.y(1)
        c.z(2)
        c.append("I", (0,))
        assert _lower(c) == []

    def test_measurements_keep_record_slots(self):
        c = Circuit()
        c.measure(3)
        c.measure(1)
        ops = _lower(c)
        assert len(ops) == 1  # same flip probability: fused
        qubits, slots = ops[0][1]
        np.testing.assert_array_equal(qubits, [3, 1])
        np.testing.assert_array_equal(slots, [0, 1])


class TestBernoulliPositions:
    def test_edge_probabilities(self):
        rng = np.random.default_rng(0)
        assert _bernoulli_positions(rng, 100, 0.0).size == 0
        np.testing.assert_array_equal(
            _bernoulli_positions(rng, 5, 1.0), np.arange(5)
        )
        assert _bernoulli_positions(rng, 0, 0.5).size == 0

    def test_positions_strictly_increasing_and_in_range(self):
        rng = np.random.default_rng(1)
        positions = _bernoulli_positions(rng, 10_000, 0.37)
        assert (np.diff(positions) > 0).all()
        assert positions.min() >= 0 and positions.max() < 10_000

    def test_hit_rate_matches_p(self):
        rng = np.random.default_rng(2)
        n, p = 200_000, 0.013
        hits = _bernoulli_positions(rng, n, p).size
        lo, hi = wilson_interval(hits, n)
        assert lo <= p <= hi


class TestValidation:
    def test_rejects_zero_shots(self):
        c = Circuit()
        c.measure(0)
        with pytest.raises(ValueError):
            compile_circuit(c).sample(0)

    def test_shots_not_multiple_of_word_size(self):
        # Padding bits in the last word must never leak into results.
        c = Circuit()
        c.x_error([0], 1.0)
        c.measure(0)
        c.add_detector([0])
        for shots in (1, 63, 64, 65, 130):
            data = compile_circuit(c).sample(shots, 0)
            assert data.detectors.shape == (shots, 1)
            assert data.detectors.all()
