"""Vectorized Pauli-frame Monte-Carlo sampling (the *reference* backend).

Because every noise channel in the model is Pauli and every gate is
Clifford, a shot is fully described by its error *frame*: an X-flip and a
Z-flip bit per qubit, propagated through the Clifford gates.  The reference
(noiseless) outcome of every measurement can be taken as 0 since detectors
and observables are XORs that are deterministic without noise — so the
sampled frame directly yields detector values.

This module interprets the instruction list per shot-batch with bool
arrays — deliberately simple, kept as the semantic oracle behind the
engine's ``backend="reference"``.  The production path is
:mod:`repro.sim.compiled`, which precomputes every noise location's
detector/observable symptom set once and samples by XORing the sets of
the faults that fire, with no per-shot propagation; its random stream
differs, so the two backends agree statistically, not bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits import Circuit, GateKind, Instruction

__all__ = [
    "DetectionData",
    "FrameSimulator",
    "sample_detection_data",
]


@dataclass
class DetectionData:
    """Sampled detector and observable values.

    Attributes
    ----------
    detectors:
        Bool array of shape ``(shots, num_detectors)``.
    observables:
        Bool array of shape ``(shots, num_observables)``.
    """

    detectors: np.ndarray
    observables: np.ndarray

    @property
    def shots(self) -> int:
        return self.detectors.shape[0]


class FrameSimulator:
    """Propagates Pauli error frames for a batch of shots."""

    def __init__(self, circuit: Circuit, shots: int, seed: int | np.random.Generator | None = None):
        if shots < 1:
            raise ValueError("need at least one shot")
        self.circuit = circuit
        self.shots = shots
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        n = circuit.num_qubits
        self.x = np.zeros((shots, n), dtype=bool)
        self.z = np.zeros((shots, n), dtype=bool)
        self.record = np.zeros((shots, circuit.num_measurements), dtype=bool)
        self._next_measurement = 0

    # ------------------------------------------------------------------
    def run(self) -> np.ndarray:
        """Execute the circuit; returns the measurement-flip record."""
        for ins in self.circuit.instructions:
            self._apply(ins)
        return self.record

    # ------------------------------------------------------------------
    def _apply(self, ins: Instruction) -> None:
        kind = ins.kind
        x, z = self.x, self.z
        if kind is GateKind.UNITARY1:
            if ins.name == "H":
                t = list(ins.targets)
                x[:, t], z[:, t] = z[:, t].copy(), x[:, t].copy()
            elif ins.name in ("S", "S_DAG"):
                for q in ins.targets:
                    z[:, q] ^= x[:, q]
            # Pauli gates and I do not move error frames.
        elif kind is GateKind.UNITARY2:
            if ins.name == "CX":
                for c, t in ins.target_groups():
                    x[:, t] ^= x[:, c]
                    z[:, c] ^= z[:, t]
            elif ins.name == "CZ":
                for c, t in ins.target_groups():
                    z[:, t] ^= x[:, c]
                    z[:, c] ^= x[:, t]
            elif ins.name == "SWAP":
                for a, b in ins.target_groups():
                    x[:, [a, b]] = x[:, [b, a]]
                    z[:, [a, b]] = z[:, [b, a]]
        elif kind is GateKind.RESET:
            t = list(ins.targets)
            x[:, t] = False
            z[:, t] = False
        elif kind is GateKind.MEASURE:
            flip = ins.args[0] if ins.args else 0.0
            for q in ins.targets:
                outcome = x[:, q].copy()
                if flip:
                    outcome ^= self.rng.random(self.shots) < flip
                self.record[:, self._next_measurement] = outcome
                self._next_measurement += 1
        elif kind is GateKind.NOISE1:
            p = ins.args[0]
            if p == 0.0:
                return
            for q in ins.targets:
                hit = self.rng.random(self.shots) < p
                if ins.name == "DEPOLARIZE1":
                    which = self.rng.integers(0, 3, self.shots)
                    x[:, q] ^= hit & (which != 2)  # X or Y
                    z[:, q] ^= hit & (which != 0)  # Y or Z
                elif ins.name == "X_ERROR":
                    x[:, q] ^= hit
                elif ins.name == "Y_ERROR":
                    x[:, q] ^= hit
                    z[:, q] ^= hit
                elif ins.name == "Z_ERROR":
                    z[:, q] ^= hit
        elif kind is GateKind.NOISE2:
            p = ins.args[0]
            if p == 0.0:
                return
            for a, b in ins.target_groups():
                hit = self.rng.random(self.shots) < p
                which = self.rng.integers(1, 16, self.shots)  # skip I⊗I
                pa, pb = which // 4, which % 4
                x[:, a] ^= hit & ((pa == 1) | (pa == 2))
                z[:, a] ^= hit & ((pa == 2) | (pa == 3))
                x[:, b] ^= hit & ((pb == 1) | (pb == 2))
                z[:, b] ^= hit & ((pb == 3) | (pb == 2))
        else:  # pragma: no cover
            raise NotImplementedError(ins.name)


def sample_detection_data(
    circuit: Circuit, shots: int, seed: int | np.random.Generator | None = None
) -> DetectionData:
    """Sample detector/observable values for ``shots`` Monte-Carlo shots."""
    sim = FrameSimulator(circuit, shots, seed)
    record = sim.run()
    detectors = np.zeros((shots, circuit.num_detectors), dtype=bool)
    for i, det in enumerate(circuit.detectors):
        for m in det.measurements:
            detectors[:, i] ^= record[:, m]
    observables = np.zeros((shots, circuit.num_observables), dtype=bool)
    for j, obs in enumerate(circuit.observables):
        for m in obs.measurements:
            observables[:, j] ^= record[:, m]
    return DetectionData(detectors, observables)

