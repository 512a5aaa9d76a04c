"""Tests for the Aaronson–Gottesman tableau simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit
from repro.pauli import PauliString
from repro.stabilizer import TableauSimulator
from repro.stabilizer.tableau import _g_exponents


class TestBasics:
    def test_initial_state_measures_zero(self):
        sim = TableauSimulator(3, seed=0)
        assert [sim.measure(q) for q in range(3)] == [0, 0, 0]

    def test_x_flips_measurement(self):
        sim = TableauSimulator(1, seed=0)
        sim.gate_x(0)
        assert sim.measure(0) == 1

    def test_h_then_h_is_identity(self):
        sim = TableauSimulator(1, seed=0)
        sim.h(0)
        sim.h(0)
        assert sim.measure(0) == 0

    def test_random_measurement_collapses(self):
        sim = TableauSimulator(1, seed=1)
        sim.h(0)
        first = sim.measure(0)
        assert sim.measure(0) == first

    def test_bell_pair_correlation(self):
        for seed in range(10):
            sim = TableauSimulator(2, seed=seed)
            sim.h(0)
            sim.cx(0, 1)
            assert sim.measure(0) == sim.measure(1)

    def test_ghz_correlation(self):
        for seed in range(5):
            sim = TableauSimulator(3, seed=seed)
            sim.h(0)
            sim.cx(0, 1)
            sim.cx(1, 2)
            outcomes = [sim.measure(q) for q in range(3)]
            assert len(set(outcomes)) == 1

    def test_s_gate_phases(self):
        # S X S† = Y.
        sim = TableauSimulator(1, seed=0)
        sim.h(0)  # |+>, stabilized by X
        sim.s(0)  # now stabilized by Y
        assert sim.peek_pauli_expectation(PauliString.from_string("Y")) == 1

    def test_s_dag_inverts_s(self):
        sim = TableauSimulator(1, seed=0)
        sim.h(0)
        sim.s(0)
        sim.s_dag(0)
        assert sim.peek_pauli_expectation(PauliString.from_string("X")) == 1

    def test_cz_makes_bell_in_x_basis(self):
        sim = TableauSimulator(2, seed=0)
        sim.h(0)
        sim.h(1)
        sim.cz(0, 1)
        # State stabilized by X⊗Z and Z⊗X.
        assert sim.peek_pauli_expectation(PauliString.from_string("XZ")) == 1
        assert sim.peek_pauli_expectation(PauliString.from_string("ZX")) == 1

    def test_swap(self):
        sim = TableauSimulator(2, seed=0)
        sim.gate_x(0)
        sim.swap(0, 1)
        assert sim.measure(0) == 0
        assert sim.measure(1) == 1

    def test_reset(self):
        sim = TableauSimulator(1, seed=0)
        sim.gate_x(0)
        sim.reset(0)
        assert sim.measure(0) == 0

    def test_reset_of_superposition(self):
        for seed in range(5):
            sim = TableauSimulator(1, seed=seed)
            sim.h(0)
            sim.reset(0)
            assert sim.measure(0) == 0


class TestMeasurePauli:
    def test_measure_zz_on_bell(self):
        sim = TableauSimulator(2, seed=0)
        sim.h(0)
        sim.cx(0, 1)
        assert sim.measure_pauli(PauliString.from_string("ZZ")) == 0
        assert sim.measure_pauli(PauliString.from_string("XX")) == 0

    def test_measure_negative_pauli(self):
        sim = TableauSimulator(1, seed=0)
        sim.gate_x(0)  # |1>, stabilized by -Z
        assert sim.measure_pauli(PauliString.from_string("Z", -1)) == 0
        assert sim.measure_pauli(PauliString.from_string("Z")) == 1

    def test_measure_non_hermitian_rejected(self):
        sim = TableauSimulator(1, seed=0)
        with pytest.raises(ValueError):
            sim.measure_pauli(PauliString.from_string("Z", 1j))

    def test_forced_outcome(self):
        sim = TableauSimulator(1, seed=0)
        assert sim.measure_pauli(PauliString.from_string("X"), forced_outcome=1) == 1
        assert sim.peek_pauli_expectation(PauliString.from_string("X")) == -1

    def test_joint_measurement_projects(self):
        # Measuring X⊗X on |00> then Z⊗Z must still give +1 (Bell state).
        for forced in (0, 1):
            sim = TableauSimulator(2, seed=0)
            m = sim.measure_pauli(PauliString.from_string("XX"), forced_outcome=forced)
            assert m == forced
            assert sim.measure_pauli(PauliString.from_string("ZZ")) == 0

    def test_repeated_pauli_measurement_is_stable(self):
        sim = TableauSimulator(3, seed=3)
        p = PauliString.from_string("XXI")
        first = sim.measure_pauli(p)
        for _ in range(3):
            assert sim.measure_pauli(p) == first

    def test_measure_y(self):
        sim = TableauSimulator(1, seed=0)
        sim.h(0)
        sim.s(0)  # +1 eigenstate of Y
        assert sim.measure_pauli(PauliString.from_string("Y")) == 0

    def test_identity_measurement(self):
        sim = TableauSimulator(1, seed=0)
        assert sim.measure_pauli(PauliString.identity(1)) == 0


class TestPeek:
    def test_peek_deterministic(self):
        sim = TableauSimulator(1, seed=0)
        assert sim.peek_pauli_expectation(PauliString.from_string("Z")) == 1
        sim.gate_x(0)
        assert sim.peek_pauli_expectation(PauliString.from_string("Z")) == -1

    def test_peek_random_returns_zero(self):
        sim = TableauSimulator(1, seed=0)
        assert sim.peek_pauli_expectation(PauliString.from_string("X")) == 0

    def test_peek_does_not_collapse(self):
        sim = TableauSimulator(1, seed=0)
        sim.h(0)
        assert sim.peek_pauli_expectation(PauliString.from_string("Z")) == 0
        assert sim.peek_pauli_expectation(PauliString.from_string("X")) == 1


class TestStabilizers:
    def test_initial_stabilizers(self):
        sim = TableauSimulator(2, seed=0)
        letters = sorted(s.letters() for s in sim.stabilizers())
        assert letters == ["IZ", "ZI"]

    def test_bell_canonical_form(self):
        sim = TableauSimulator(2, seed=0)
        sim.h(0)
        sim.cx(0, 1)
        canonical = {str(s) for s in sim.canonical_stabilizers()}
        assert canonical == {"+XX", "+ZZ"}

    def test_canonical_form_is_state_fingerprint(self):
        # Two different circuits preparing the same state agree.
        a = TableauSimulator(2, seed=0)
        a.h(0)
        a.cx(0, 1)
        b = TableauSimulator(2, seed=0)
        b.h(1)
        b.cx(1, 0)
        assert [str(s) for s in a.canonical_stabilizers()] == [
            str(s) for s in b.canonical_stabilizers()
        ]

    def test_apply_pauli_flips_signs(self):
        sim = TableauSimulator(1, seed=0)
        sim.apply_pauli(PauliString.from_string("X"))
        assert sim.peek_pauli_expectation(PauliString.from_string("Z")) == -1


class TestRunCircuit:
    def test_run_records_measurements(self):
        c = Circuit()
        c.h(0)
        c.cx(0, 1)
        c.measure(0, 1)
        for seed in range(5):
            sim = TableauSimulator(2, seed=seed)
            record = sim.run(c)
            assert record[0] == record[1]

    def test_run_with_forced_noise(self):
        c = Circuit()
        c.x_error([0], 1.0)
        c.measure(0)
        sim = TableauSimulator(1, seed=0)
        assert sim.run(c) == [1]

    def test_run_measurement_flip(self):
        c = Circuit()
        c.measure(0, flip_probability=1.0)
        sim = TableauSimulator(1, seed=0)
        assert sim.run(c) == [1]
        # State itself was unaffected.
        assert sim.measure(0) == 0

    def test_copy_independent(self):
        sim = TableauSimulator(1, seed=0)
        clone = sim.copy()
        clone.gate_x(0)
        assert sim.measure(0) == 0
        assert clone.measure(0) == 1


class _RowLoopTableau(TableauSimulator):
    """The oracle for the one-mask measurement: every row's
    anticommutation is tested inside the loop, after the rowsums of the
    rows before it."""

    def _anticommutes(self, row, xs, zs):
        overlap = np.count_nonzero(self.x[row] & zs) + np.count_nonzero(
            self.z[row] & xs
        )
        return overlap % 2 == 1

    def measure_pauli(self, pauli, forced_outcome=None):
        if pauli.is_identity():
            return self._pauli_sign_bit(pauli)
        xs, zs = pauli.xs, pauli.zs
        sign_bit = self._pauli_sign_bit(pauli)
        n = self.n
        anti_stab = [row for row in range(n, 2 * n) if self._anticommutes(row, xs, zs)]
        if anti_stab:
            p = anti_stab[0]
            for row in range(2 * n):
                if row not in (p, p - n) and self._anticommutes(row, xs, zs):
                    self._rowsum(row, p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            outcome = self.rng.integers(2) if forced_outcome is None else forced_outcome
            self.x[p] = xs
            self.z[p] = zs
            self.r[p] = (outcome + sign_bit) % 2
            return outcome
        scratch_x = np.zeros(n, dtype=bool)
        scratch_z = np.zeros(n, dtype=bool)
        scratch_r = 0
        for i in range(n):
            if self._anticommutes(i, xs, zs):
                row_x, row_z = self.x[n + i], self.z[n + i]
                exponent = _g_exponents(row_x, row_z, scratch_x, scratch_z)
                scratch_r = (2 * scratch_r + 2 * int(self.r[n + i]) + exponent) % 4 // 2
                scratch_x ^= row_x
                scratch_z ^= row_z
        assert np.array_equal(scratch_x, xs) and np.array_equal(scratch_z, zs)
        return (scratch_r + sign_bit) % 2

    def peek_pauli_expectation(self, pauli):
        if pauli.is_identity():
            return 1 if self._pauli_sign_bit(pauli) == 0 else -1
        for row in range(self.n, 2 * self.n):
            if self._anticommutes(row, pauli.xs, pauli.zs):
                return 0
        return 1 if self.copy().measure_pauli(pauli) == 0 else -1


_N = 5
_gate = st.one_of(
    st.tuples(
        st.sampled_from(["h", "s", "s_dag", "gate_x", "gate_y", "gate_z"]),
        st.integers(0, _N - 1),
    ),
    st.tuples(
        st.sampled_from(["cx", "cz", "swap"]),
        st.integers(0, _N - 1),
        st.integers(0, _N - 1),
    ).filter(lambda op: op[1] != op[2]),
)
_measurement = st.tuples(
    st.just("measure"),
    st.text(alphabet="IXYZ", min_size=_N, max_size=_N),
    st.sampled_from([1, -1]),
)


class TestOneMaskMeasurement:
    """``measure_pauli`` decides every row from one anticommutation mask;
    outcomes and the final tableau equal the per-row loop's."""

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(st.one_of(_gate, _measurement), max_size=40),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_row_loop(self, ops, seed):
        sim, oracle = TableauSimulator(_N, seed=seed), _RowLoopTableau(_N, seed=seed)
        outcomes, expected = [], []
        for op in ops:
            if op[0] == "measure":
                pauli = PauliString.from_string(op[1], op[2])
                expected.append(oracle.peek_pauli_expectation(pauli))
                outcomes.append(sim.peek_pauli_expectation(pauli))
                expected.append(oracle.measure_pauli(pauli))
                outcomes.append(sim.measure_pauli(pauli))
            else:
                getattr(sim, op[0])(*op[1:])
                getattr(oracle, op[0])(*op[1:])
        assert outcomes == expected
        np.testing.assert_array_equal(sim.x, oracle.x)
        np.testing.assert_array_equal(sim.z, oracle.z)
        np.testing.assert_array_equal(sim.r, oracle.r)
