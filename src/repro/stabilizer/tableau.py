"""Aaronson–Gottesman CHP tableau simulator with joint-Pauli measurement.

The tableau holds ``2n`` rows: rows ``0..n-1`` are destabilizers, rows
``n..2n-1`` are stabilizers.  Each row is a Pauli in the same symplectic
convention as :class:`repro.pauli.PauliString` (per-qubit ``(x=1, z=1)``
means the letter Y), with a sign bit ``r`` (0 → +, 1 → −).

Beyond the textbook single-qubit measurement, :meth:`measure_pauli` measures
an arbitrary Hermitian Pauli product directly — the primitive that makes
lattice-surgery merges one-liners.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import Circuit, GateKind, Instruction
from repro.pauli import PauliString

__all__ = ["TableauSimulator"]


def _g_exponents(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> int:
    """Sum of Aaronson–Gottesman ``g`` phase exponents over all qubits.

    ``g`` gives the exponent of ``i`` produced when multiplying the
    single-qubit Paulis ``(x1, z1) * (x2, z2)`` in row convention.
    """
    x1i = x1.astype(np.int8)
    z1i = z1.astype(np.int8)
    x2i = x2.astype(np.int8)
    z2i = z2.astype(np.int8)
    # case (1, 0) = X:  g = z2 * (2*x2 - 1)
    # case (1, 1) = Y:  g = z2 - x2
    # case (0, 1) = Z:  g = x2 * (1 - 2*z2)
    g = np.zeros_like(x1i)
    is_x = (x1i == 1) & (z1i == 0)
    is_y = (x1i == 1) & (z1i == 1)
    is_z = (x1i == 0) & (z1i == 1)
    g = np.where(is_x, z2i * (2 * x2i - 1), g)
    g = np.where(is_y, z2i - x2i, g)
    g = np.where(is_z, x2i * (1 - 2 * z2i), g)
    return int(g.sum())


class TableauSimulator:
    """Stabilizer-state simulator on ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of qubits, all initialized to |0⟩.
    seed:
        Seed (or ``numpy.random.Generator``) for random measurement outcomes.
    """

    def __init__(self, num_qubits: int, seed: int | np.random.Generator | None = None):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        n = num_qubits
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=np.int8)
        self.x[np.arange(n), np.arange(n)] = True  # destabilizers X_i
        self.z[n + np.arange(n), np.arange(n)] = True  # stabilizers Z_i
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

    def copy(self) -> "TableauSimulator":
        clone = TableauSimulator.__new__(TableauSimulator)
        clone.n = self.n
        clone.x = self.x.copy()
        clone.z = self.z.copy()
        clone.r = self.r.copy()
        clone.rng = self.rng
        return clone

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    def h(self, q: int) -> None:
        self.r ^= (self.x[:, q] & self.z[:, q]).astype(np.int8)
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= (self.x[:, q] & self.z[:, q]).astype(np.int8)
        self.z[:, q] ^= self.x[:, q]

    def s_dag(self, q: int) -> None:
        self.r ^= (self.x[:, q] & ~self.z[:, q]).astype(np.int8)
        self.z[:, q] ^= self.x[:, q]

    def gate_x(self, q: int) -> None:
        self.r ^= self.z[:, q].astype(np.int8)

    def gate_y(self, q: int) -> None:
        self.r ^= (self.x[:, q] ^ self.z[:, q]).astype(np.int8)

    def gate_z(self, q: int) -> None:
        self.r ^= self.x[:, q].astype(np.int8)

    def cx(self, c: int, t: int) -> None:
        self.r ^= (
            self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        ).astype(np.int8)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def cz(self, c: int, t: int) -> None:
        self.h(t)
        self.cx(c, t)
        self.h(t)

    def swap(self, a: int, b: int) -> None:
        for arr in (self.x, self.z):
            arr[:, [a, b]] = arr[:, [b, a]]

    # ------------------------------------------------------------------
    # Row arithmetic
    # ------------------------------------------------------------------
    def _rowsum(self, h: int, i: int) -> None:
        """Row ``h`` ← row ``i`` · row ``h`` (with exact phase tracking)."""
        exponent = _g_exponents(self.x[i], self.z[i], self.x[h], self.z[h])
        total = (2 * int(self.r[h]) + 2 * int(self.r[i]) + exponent) % 4
        if total not in (0, 2):  # pragma: no cover - invariant of AG algebra
            raise AssertionError("rowsum produced imaginary phase")
        self.r[h] = total // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def _anticommuting_rows(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Bool mask over all ``2n`` rows: which anticommute with ``(xs, zs)``."""
        return (((self.x & zs) ^ (self.z & xs)).sum(axis=1) & 1).astype(bool)

    @staticmethod
    def _pauli_sign_bit(pauli: PauliString) -> int:
        residual = pauli.residual_phase()
        if residual not in (0, 2):
            raise ValueError(f"cannot measure non-Hermitian Pauli {pauli}")
        return residual // 2

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure_pauli(
        self, pauli: PauliString, forced_outcome: int | None = None
    ) -> int:
        """Measure a Hermitian Pauli product; returns the outcome bit.

        Outcome 0 projects onto the +1 eigenspace of ``pauli`` and 1 onto
        the −1 eigenspace.  ``forced_outcome`` (0/1) overrides the coin flip
        when the outcome is random — handy for deterministic tests.
        """
        if pauli.num_qubits != self.n:
            raise ValueError("Pauli size mismatch")
        if pauli.is_identity():
            return self._pauli_sign_bit(pauli)
        xs, zs = pauli.xs, pauli.zs
        sign_bit = self._pauli_sign_bit(pauli)
        n = self.n

        # One mask decides every row: a row's test reads only that row,
        # and the random branch rewrites only rows it has tested, never
        # row p; the deterministic branch rewrites no row.
        anti = self._anticommuting_rows(xs, zs)
        anti_stab = np.flatnonzero(anti[n:])
        if anti_stab.size:
            p = n + int(anti_stab[0])
            # Skip row p and its partner destabilizer p-n: the partner is
            # overwritten below, and its product with row p would be
            # anti-Hermitian (they anticommute), breaking phase tracking.
            anti[[p - n, p]] = False
            for row in np.flatnonzero(anti):
                self._rowsum(int(row), p)
            # Old stabilizer becomes the destabilizer of the new one.
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            outcome = (
                int(self.rng.integers(2)) if forced_outcome is None else int(forced_outcome)
            )
            self.x[p] = xs
            self.z[p] = zs
            self.r[p] = (outcome + sign_bit) % 2
            return outcome

        # Deterministic: accumulate the product of stabilizers whose
        # destabilizer partners anticommute with the measured Pauli.
        scratch_x = np.zeros(n, dtype=bool)
        scratch_z = np.zeros(n, dtype=bool)
        scratch_r = 0
        for i in np.flatnonzero(anti[:n]):
            exponent = _g_exponents(self.x[n + i], self.z[n + i], scratch_x, scratch_z)
            total = (2 * scratch_r + 2 * int(self.r[n + i]) + exponent) % 4
            if total not in (0, 2):  # pragma: no cover
                raise AssertionError("scratch rowsum produced imaginary phase")
            scratch_r = total // 2
            scratch_x ^= self.x[n + i]
            scratch_z ^= self.z[n + i]
        if not (np.array_equal(scratch_x, xs) and np.array_equal(scratch_z, zs)):
            raise AssertionError("deterministic measurement reconstruction failed")
        return (scratch_r + sign_bit) % 2

    def measure(self, q: int) -> int:
        """Measure qubit ``q`` in the Z basis."""
        return self.measure_pauli(PauliString.single(self.n, q, "Z"))

    def reset(self, q: int) -> None:
        """Reset qubit ``q`` to |0⟩."""
        if self.measure(q) == 1:
            self.gate_x(q)

    def peek_pauli_expectation(self, pauli: PauliString) -> int:
        """⟨P⟩ as +1, −1 or 0 (0 ⇔ the outcome would be random).

        Does not modify the state.
        """
        if pauli.is_identity():
            return 1 if self._pauli_sign_bit(pauli) == 0 else -1
        if self._anticommuting_rows(pauli.xs, pauli.zs)[self.n :].any():
            return 0
        clone = self.copy()
        outcome = clone.measure_pauli(pauli)
        return 1 if outcome == 0 else -1

    # ------------------------------------------------------------------
    # Pauli application and circuit execution
    # ------------------------------------------------------------------
    def apply_pauli(self, pauli: PauliString) -> None:
        """Apply a Pauli unitary (global phase discarded)."""
        for q in pauli.support():
            letter = pauli.letter(q)
            if letter == "X":
                self.gate_x(q)
            elif letter == "Y":
                self.gate_y(q)
            elif letter == "Z":
                self.gate_z(q)

    def run(self, circuit: Circuit, rng: np.random.Generator | None = None) -> list[int]:
        """Execute a circuit (sampling its noise channels); returns outcomes."""
        rng = rng or self.rng
        record: list[int] = []
        for ins in circuit.instructions:
            self._run_instruction(ins, record, rng)
        return record

    def _run_instruction(
        self, ins: Instruction, record: list[int], rng: np.random.Generator
    ) -> None:
        kind = ins.kind
        if kind is GateKind.UNITARY1:
            op = {
                "I": lambda q: None,
                "H": self.h,
                "S": self.s,
                "S_DAG": self.s_dag,
                "X": self.gate_x,
                "Y": self.gate_y,
                "Z": self.gate_z,
            }[ins.name]
            for q in ins.targets:
                op(q)
        elif kind is GateKind.UNITARY2:
            op = {"CX": self.cx, "CZ": self.cz, "SWAP": self.swap}[ins.name]
            for a, b in ins.target_groups():
                op(a, b)
        elif kind is GateKind.RESET:
            for q in ins.targets:
                self.reset(q)
        elif kind is GateKind.MEASURE:
            flip = ins.args[0] if ins.args else 0.0
            for q in ins.targets:
                outcome = self.measure(q)
                if flip and rng.random() < flip:
                    outcome ^= 1
                record.append(outcome)
        elif kind is GateKind.NOISE1:
            for q in ins.targets:
                self._sample_noise1(ins.name, q, ins.args[0], rng)
        elif kind is GateKind.NOISE2:
            for a, b in ins.target_groups():
                self._sample_noise2(ins.name, a, b, ins.args[0], rng)
        else:  # pragma: no cover
            raise NotImplementedError(ins.name)

    def _sample_noise1(self, name: str, q: int, p: float, rng: np.random.Generator) -> None:
        if rng.random() >= p:
            return
        if name == "DEPOLARIZE1":
            letter = "XYZ"[rng.integers(3)]
        else:
            letter = {"X_ERROR": "X", "Y_ERROR": "Y", "Z_ERROR": "Z"}[name]
        self.apply_pauli(PauliString.single(self.n, q, letter))

    def _sample_noise2(self, name: str, a: int, b: int, p: float, rng: np.random.Generator) -> None:
        if name != "DEPOLARIZE2":  # pragma: no cover
            raise NotImplementedError(name)
        if rng.random() >= p:
            return
        which = int(rng.integers(15)) + 1  # skip I⊗I
        la, lb = "IXYZ"[which // 4], "IXYZ"[which % 4]
        if la != "I":
            self.apply_pauli(PauliString.single(self.n, a, la))
        if lb != "I":
            self.apply_pauli(PauliString.single(self.n, b, lb))

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    def stabilizers(self) -> list[PauliString]:
        """The current stabilizer generators (rows n..2n−1)."""
        result = []
        for row in range(self.n, 2 * self.n):
            y_count = int(np.count_nonzero(self.x[row] & self.z[row]))
            phase = (2 * int(self.r[row]) + y_count) % 4
            result.append(PauliString(self.x[row], self.z[row], phase))
        return result

    def canonical_stabilizers(self) -> list[PauliString]:
        """Gaussian-eliminated stabilizer generators, a state fingerprint.

        Two simulators hold the same state iff their canonical stabilizer
        lists are equal.
        """
        n = self.n
        xs = self.x[n:].copy()
        zs = self.z[n:].copy()
        rs = self.r[n:].copy()

        def rowmul(h: int, i: int) -> None:
            exponent = _g_exponents(xs[i], zs[i], xs[h], zs[h])
            total = (2 * int(rs[h]) + 2 * int(rs[i]) + exponent) % 4
            rs[h] = total // 2
            xs[h] ^= xs[i]
            zs[h] ^= zs[i]

        pivot = 0
        for q in range(n):
            candidates = [row for row in range(pivot, n) if xs[row, q]]
            if not candidates:
                continue
            lead = candidates[0]
            if lead != pivot:
                xs[[pivot, lead]] = xs[[lead, pivot]]
                zs[[pivot, lead]] = zs[[lead, pivot]]
                rs[[pivot, lead]] = rs[[lead, pivot]]
            for row in range(n):
                if row != pivot and xs[row, q]:
                    rowmul(row, pivot)
            pivot += 1
        for q in range(n):
            candidates = [row for row in range(pivot, n) if zs[row, q]]
            if not candidates:
                continue
            lead = candidates[0]
            if lead != pivot:
                xs[[pivot, lead]] = xs[[lead, pivot]]
                zs[[pivot, lead]] = zs[[lead, pivot]]
                rs[[pivot, lead]] = rs[[lead, pivot]]
            for row in range(n):
                if row != pivot and zs[row, q]:
                    rowmul(row, pivot)
            pivot += 1

        result = []
        for row in range(n):
            y_count = int(np.count_nonzero(xs[row] & zs[row]))
            phase = (2 * int(rs[row]) + y_count) % 4
            result.append(PauliString(xs[row], zs[row], phase))
        return sorted(result, key=lambda p: (p.letters(), p.phase))
