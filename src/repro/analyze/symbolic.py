"""Symbolic Pauli-frame/GF(2) propagation: static determinism proofs.

The dynamic certificate (run the noiseless circuit on the tableau
simulator for a couple of seeds and check every detector comes out 0)
can only *sample* the randomness of a circuit.  This engine instead
walks the circuit **once**, carrying each stabilizer phase as an affine
GF(2) expression over symbolic bits:

* one fresh *outcome bit* per genuinely random measurement (the
  projective coin flip of a measurement that anticommutes with the
  stabilizer group — including the implicit measurement inside ``R``);
* optionally (``strict_init=True``) one *initial-state bit* per qubit,
  modelling an arbitrary computational-basis input state, so a missing
  reset shows up as dependence on state the circuit never prepared.

Every recorded measurement outcome is then an affine expression, and a
detector/observable is **proved** deterministic exactly when the XOR of
its measurement expressions has no free bits and constant 0 — for every
seed at once, not per sampled seed.  When the proof fails, the engine
reports *which* instruction introduced the offending randomness.

The machinery is the Aaronson–Gottesman tableau of
:class:`repro.stabilizer.TableauSimulator` with the sign column split
into a concrete part (the inherited ``r``) and a symbolic part
(``r_sym``): unitaries only ever touch the concrete part, so the
symbolic bookkeeping costs nothing outside measurements and resets.
Expressions are plain ints — bit 0 is the constant term, bit ``j + 1``
is symbolic variable ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analyze.diagnostics import Diagnostic
from repro.circuits import Circuit, GateKind, Instruction
from repro.pauli import PauliString
from repro.stabilizer import TableauSimulator

__all__ = [
    "SymbolicCertificationError",
    "SymbolicRun",
    "SymbolicTableau",
    "SymbolicVariable",
    "certify_deterministic",
    "propagate",
    "tableau_oracle",
    "verify_circuit",
]

_CONST = 1  # bit 0 of an expression is the constant term


@dataclass(frozen=True)
class SymbolicVariable:
    """One symbolic GF(2) bit and the circuit location that minted it."""

    index: int
    kind: str  # "initial" | "measurement" | "reset"
    qubit: int
    instruction: int | None = None  # instruction index that introduced it
    measurement: int | None = None  # measurement record index, if any

    @property
    def bit(self) -> int:
        return 1 << (self.index + 1)

    def describe(self) -> str:
        if self.kind == "initial":
            return f"initial state of qubit {self.qubit} (never reset)"
        what = "measurement" if self.kind == "measurement" else "reset collapse"
        where = f"instruction #{self.instruction}" if self.instruction is not None else "?"
        extra = f", outcome m{self.measurement}" if self.measurement is not None else ""
        return f"random {what} of qubit {self.qubit} at {where}{extra}"


class SymbolicTableau(TableauSimulator):
    """Tableau simulator whose sign bits are affine GF(2) expressions.

    The inherited ``r`` column keeps the concrete (constant) part of each
    row's phase; ``r_sym`` carries the symbolic part as an int bitmask
    per row.  Unitary gates are inherited untouched — a Clifford
    conjugation flips phases deterministically — so only measurement,
    reset and row arithmetic are overridden.
    """

    def __init__(self, num_qubits: int, strict_init: bool = False):
        super().__init__(num_qubits, seed=0)
        self.r_sym: list[int] = [0] * (2 * num_qubits)
        self.variables: list[SymbolicVariable] = []
        self._instruction: int | None = None
        if strict_init:
            # Stabilizer row n+q is Z_q; giving it a symbolic sign means
            # qubit q starts in |s_q> for an unknown classical bit s_q.
            for q in range(num_qubits):
                var = self._new_variable("initial", q)
                self.r_sym[num_qubits + q] = var.bit

    # ------------------------------------------------------------------
    def _new_variable(
        self, kind: str, qubit: int, measurement: int | None = None
    ) -> SymbolicVariable:
        var = SymbolicVariable(
            index=len(self.variables),
            kind=kind,
            qubit=qubit,
            instruction=self._instruction,
            measurement=measurement,
        )
        self.variables.append(var)
        return var

    # ------------------------------------------------------------------
    def _rowsum(self, h: int, i: int) -> None:
        super()._rowsum(h, i)  # concrete part + Hermiticity assertion
        self.r_sym[h] ^= self.r_sym[i]

    def _anticommute_mask(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Vectorized anticommutation test of every row against (xs, zs)."""
        overlap = np.count_nonzero(self.x & zs, axis=1) + np.count_nonzero(
            self.z & xs, axis=1
        )
        return (overlap & 1).astype(bool)

    # ------------------------------------------------------------------
    def measure_pauli(
        self, pauli: PauliString, forced_outcome: int | None = None
    ) -> int:
        """Measure a Hermitian Pauli; returns an affine GF(2) expression.

        A random outcome mints a fresh symbolic bit instead of flipping a
        coin; a deterministic outcome is reconstructed exactly as in the
        parent class, with the symbolic parts of the contributing
        stabilizer rows XORed alongside the concrete phases.
        """
        if forced_outcome is not None:
            raise ValueError("symbolic measurement cannot force outcomes")
        if pauli.num_qubits != self.n:
            raise ValueError("Pauli size mismatch")
        sign_bit = self._pauli_sign_bit(pauli)
        if pauli.is_identity():
            return sign_bit
        xs, zs = pauli.xs, pauli.zs
        n = self.n
        anti = self._anticommute_mask(xs, zs)

        anti_stab = np.nonzero(anti[n:])[0]
        if anti_stab.size:
            p = n + int(anti_stab[0])
            for row in np.nonzero(anti)[0]:
                if row in (p, p - n):
                    continue
                self._rowsum(int(row), p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.r_sym[p - n] = self.r_sym[p]
            qubit = int(np.nonzero(xs | zs)[0][0])
            var = self._new_variable(self._measure_kind, qubit)
            self.x[p] = xs
            self.z[p] = zs
            self.r[p] = sign_bit
            self.r_sym[p] = var.bit
            return var.bit

        # Deterministic: accumulate the product of stabilizers whose
        # destabilizer partners anticommute with the measured Pauli.
        from repro.stabilizer.tableau import _g_exponents

        scratch_x = np.zeros(n, dtype=bool)
        scratch_z = np.zeros(n, dtype=bool)
        scratch_r = 0
        scratch_sym = 0
        for i in np.nonzero(anti[:n])[0]:
            row = n + int(i)
            exponent = _g_exponents(self.x[row], self.z[row], scratch_x, scratch_z)
            total = (2 * scratch_r + 2 * int(self.r[row]) + exponent) % 4
            if total not in (0, 2):  # pragma: no cover - AG invariant
                raise AssertionError("scratch rowsum produced imaginary phase")
            scratch_r = total // 2
            scratch_sym ^= self.r_sym[row]
            scratch_x ^= self.x[row]
            scratch_z ^= self.z[row]
        if not (np.array_equal(scratch_x, xs) and np.array_equal(scratch_z, zs)):
            raise AssertionError("deterministic measurement reconstruction failed")
        return ((scratch_r + sign_bit) % 2) | scratch_sym

    #: variable kind minted by the next random measurement (``reset``
    #: while inside :meth:`reset`, ``measurement`` otherwise).
    _measure_kind = "measurement"

    def measure(self, q: int) -> int:
        return self.measure_pauli(PauliString.single(self.n, q, "Z"))

    def reset(self, q: int) -> None:
        """Reset to |0⟩: measure, then apply X conditioned on the outcome.

        The conditional Pauli is free in the symbolic frame — ``X^e``
        adds ``e`` to the sign expression of every row with a Z component
        on ``q`` — and it absorbs the outcome bit, so resets *kill*
        symbolic dependence rather than spread it.
        """
        self._measure_kind = "reset"
        try:
            expr = self.measure(q)
        finally:
            self._measure_kind = "measurement"
        mask = self.z[:, q]
        if expr & _CONST:
            self.r ^= mask.astype(np.int8)
        sym = expr & ~_CONST
        if sym:
            for row in np.nonzero(mask)[0]:
                self.r_sym[row] ^= sym


@dataclass
class SymbolicRun:
    """The result of one symbolic walk over a circuit."""

    num_qubits: int
    measurements: list[int]  # affine expression per measurement record
    variables: list[SymbolicVariable]
    strict_init: bool

    def expression(self, measurement_indices) -> int:
        """The affine expression of an XOR of measurement outcomes."""
        expr = 0
        for m in measurement_indices:
            expr ^= self.measurements[m]
        return expr

    def variables_of(self, expr: int) -> list[SymbolicVariable]:
        """The symbolic variables with non-zero coefficient in ``expr``."""
        return [v for v in self.variables if expr & v.bit]

    def is_deterministic(self, measurement_indices) -> bool:
        return self.expression(measurement_indices) & ~_CONST == 0


def propagate(circuit: Circuit, strict_init: bool = False) -> SymbolicRun:
    """Walk a noiseless circuit once, tracking outcomes symbolically.

    Raises ``ValueError`` on noise channels or noisy measurements: strip
    them first with :meth:`Circuit.without_noise` (the verifier does).
    """
    sim = SymbolicTableau(max(circuit.num_qubits, 1), strict_init=strict_init)
    record: list[int] = []
    for index, ins in enumerate(circuit.instructions):
        sim._instruction = index
        _propagate_instruction(sim, ins, record)
    return SymbolicRun(
        num_qubits=circuit.num_qubits,
        measurements=record,
        variables=sim.variables,
        strict_init=strict_init,
    )


def _propagate_instruction(
    sim: SymbolicTableau, ins: Instruction, record: list[int]
) -> None:
    kind = ins.kind
    if kind in (GateKind.NOISE1, GateKind.NOISE2):
        raise ValueError(
            "symbolic propagation requires a noiseless circuit "
            f"(found {ins.name}); strip with Circuit.without_noise()"
        )
    if kind is GateKind.UNITARY1:
        op = {
            "I": lambda q: None,
            "H": sim.h,
            "S": sim.s,
            "S_DAG": sim.s_dag,
            "X": sim.gate_x,
            "Y": sim.gate_y,
            "Z": sim.gate_z,
        }[ins.name]
        for q in ins.targets:
            op(q)
    elif kind is GateKind.UNITARY2:
        op = {"CX": sim.cx, "CZ": sim.cz, "SWAP": sim.swap}[ins.name]
        for a, b in ins.target_groups():
            op(a, b)
    elif kind is GateKind.RESET:
        for q in ins.targets:
            sim.reset(q)
    elif kind is GateKind.MEASURE:
        if ins.args and ins.args[0] > 0:
            raise ValueError(
                "symbolic propagation requires noiseless measurements; "
                "strip with Circuit.without_noise()"
            )
        for q in ins.targets:
            expr = sim.measure(q)
            sym = expr & ~_CONST
            if sym:
                # Attribute the freshest variable of this outcome to its
                # measurement record (for culprit reporting).
                for var in reversed(sim.variables):
                    if sym & var.bit and var.measurement is None:
                        object.__setattr__(var, "measurement", len(record))
                        break
            record.append(expr)
    else:  # pragma: no cover
        raise NotImplementedError(ins.name)


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
class SymbolicCertificationError(Exception):
    """A circuit failed the symbolic determinism proof."""

    def __init__(self, message: str, diagnostics: list[Diagnostic]):
        super().__init__(message)
        self.diagnostics = diagnostics


def _diagnose(
    run: SymbolicRun, expr: int, what: str, location: str
) -> Diagnostic | None:
    sym = expr & ~_CONST
    if sym:
        culprits = run.variables_of(expr)
        initial_only = all(v.kind == "initial" for v in culprits)
        detail = "; ".join(v.describe() for v in culprits[:3])
        if len(culprits) > 3:
            detail += f"; +{len(culprits) - 3} more"
        if initial_only:
            return Diagnostic(
                "SYM003",
                "error",
                location,
                f"{what} depends on initial state: {detail}",
            )
        return Diagnostic(
            "SYM001",
            "error",
            location,
            f"{what} is not deterministic: {detail}",
        )
    if expr & _CONST:
        return Diagnostic(
            "SYM002",
            "error",
            location,
            f"{what} has deterministic value 1 on the noiseless circuit",
        )
    return None


def verify_circuit(
    circuit: Circuit, strict_init: bool = False, location: str = "circuit"
) -> list[Diagnostic]:
    """Prove every detector/observable deterministic; return the failures.

    The circuit may carry noise channels — they are stripped before the
    symbolic walk (determinism is a property of the noiseless skeleton).
    An empty list is a *proof* that every detector and observable is 0
    for every measurement-randomness outcome (and, with ``strict_init``,
    for every computational-basis input state).
    """
    run = propagate(circuit.without_noise(), strict_init=strict_init)
    diagnostics: list[Diagnostic] = []
    for i, det in enumerate(circuit.detectors):
        found = _diagnose(
            run,
            run.expression(det.measurements),
            f"detector {i} (basis {det.basis})",
            f"{location}:detector[{i}]@{det.coord}",
        )
        if found:
            diagnostics.append(found)
    for obs in circuit.observables:
        found = _diagnose(
            run,
            run.expression(obs.measurements),
            f"observable {obs.name} (basis {obs.basis})",
            f"{location}:observable[{obs.name}]",
        )
        if found:
            diagnostics.append(found)
    return diagnostics


def certify_deterministic(
    circuit: Circuit, name: str = "circuit", strict_init: bool = False
) -> None:
    """Raise :class:`SymbolicCertificationError` unless the proof passes."""
    diagnostics = verify_circuit(circuit, strict_init=strict_init, location=name)
    if diagnostics:
        raise SymbolicCertificationError(
            f"{name}: symbolic determinism proof failed "
            f"({len(diagnostics)} finding(s)); first: {diagnostics[0]}",
            diagnostics,
        )


def tableau_oracle(circuit: Circuit, location: str = "circuit") -> list[Diagnostic]:
    """The proof's sampled cross-check on the stabilizer tableau simulator.

    Runs the noiseless circuit at seeds 0 and 1 and returns a SYM002
    finding for every detector or observable that comes out 1.  A sample
    can miss randomness that the proof catches, never the reverse, so on
    a proven circuit any finding means the two engines disagree.
    """
    clean = circuit.without_noise()
    checks = [
        (f"detector {i} at {det.coord}", det.measurements)
        for i, det in enumerate(clean.detectors)
    ]
    checks += [
        (f"observable {obs.name}", obs.measurements) for obs in clean.observables
    ]
    findings: list[Diagnostic] = []
    for seed in (0, 1):
        record = TableauSimulator(clean.num_qubits, seed=seed).run(clean)
        for what, measurements in checks:
            if sum(record[m] for m in measurements) % 2:
                findings.append(
                    Diagnostic(
                        "SYM002",
                        "error",
                        f"{location}:oracle",
                        f"tableau oracle (seed {seed}) fires {what} "
                        "on the noiseless circuit",
                    )
                )
    return findings
