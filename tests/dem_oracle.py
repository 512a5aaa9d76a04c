"""Backward sensitivity pass: which detectors does each fault flip?

The test oracle of :meth:`repro.sim.compiled.CompiledCircuit.fault_mechanisms`,
which builds the detector error model from the sampler's symptom table:
this pass walks the circuit itself, one instruction at a time, on
Python-int masks, so the two share no code.

A Pauli fault inserted at a circuit location flips a deterministic set of
detectors/observables.  Computing that set fault-by-fault with forward
propagation costs O(circuit²); instead we sweep the circuit *backwards*
once, maintaining for every qubit two bitmasks:

* ``sens_x[q]`` — the detectors/observables an X inserted *here* would flip,
* ``sens_z[q]`` — ditto for a Z (a Y flips ``sens_x[q] ^ sens_z[q]``).

Walking backwards over a Clifford gate G updates the masks by conjugation
(inserting P before G equals inserting G·P·G† after it); a measurement adds
its detector/observable mask to the X sensitivity of the measured qubit; a
reset clears both masks.  When the sweep crosses a noise instruction, the
current masks give every elementary fault's symptom set in O(1).

Bit layout of masks: bit ``i`` (0 ≤ i < num_detectors) is detector ``i``;
bit ``num_detectors + j`` is observable ``j``.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import Circuit, GateKind
from repro.dem import FaultMechanism

__all__ = ["extract_fault_mechanisms", "oracle_faults"]

#: (probability, symptom-mask) pairs, merged by identical mask.
RawFaults = dict[int, float]


def _measurement_masks(circuit: Circuit) -> list[int]:
    """For each measurement index, the mask of annotations it feeds."""
    masks = [0] * circuit.num_measurements
    for i, det in enumerate(circuit.detectors):
        for m in det.measurements:
            masks[m] ^= 1 << i
    base = circuit.num_detectors
    for j, obs in enumerate(circuit.observables):
        for m in obs.measurements:
            masks[m] ^= 1 << (base + j)
    return masks


def _combine(faults: RawFaults, mask: int, probability: float) -> None:
    """Accumulate a mechanism, XOR-combining with an existing identical one.

    Two independent events that flip the same symptom set are equivalent to
    one event with probability ``p(1−q) + q(1−p)``.
    """
    if mask == 0 or probability == 0.0:
        return
    existing = faults.get(mask, 0.0)
    faults[mask] = existing + probability - 2.0 * existing * probability


def extract_fault_mechanisms(circuit: Circuit) -> dict[int, float]:
    """All elementary fault mechanisms of ``circuit``.

    Returns a mapping ``symptom mask -> probability`` (see module docstring
    for the bit layout).  Mechanisms with empty symptoms are dropped; a
    mechanism that flips only observables (an *undetectable* logical error)
    is kept — callers should surface it, since no decoder can fix it.
    """
    meas_masks = _measurement_masks(circuit)
    n = circuit.num_qubits
    sens_x = [0] * n
    sens_z = [0] * n
    faults: RawFaults = {}
    next_meas = circuit.num_measurements

    for ins in reversed(circuit.instructions):
        kind = ins.kind
        if kind is GateKind.UNITARY1:
            if ins.name == "H":
                for q in ins.targets:
                    sens_x[q], sens_z[q] = sens_z[q], sens_x[q]
            elif ins.name in ("S", "S_DAG"):
                for q in ins.targets:
                    sens_x[q] ^= sens_z[q]
            # X, Y, Z, I only affect signs, not symptom sets.
        elif kind is GateKind.UNITARY2:
            if ins.name == "CX":
                for c, t in ins.target_groups():
                    sens_x[c] ^= sens_x[t]
                    sens_z[t] ^= sens_z[c]
            elif ins.name == "CZ":
                for c, t in ins.target_groups():
                    sens_x[c] ^= sens_z[t]
                    sens_x[t] ^= sens_z[c]
            elif ins.name == "SWAP":
                for a, b in ins.target_groups():
                    sens_x[a], sens_x[b] = sens_x[b], sens_x[a]
                    sens_z[a], sens_z[b] = sens_z[b], sens_z[a]
        elif kind is GateKind.MEASURE:
            flip = ins.args[0] if ins.args else 0.0
            next_meas -= len(ins.targets)
            for offset, q in enumerate(ins.targets):
                m_mask = meas_masks[next_meas + offset]
                if flip:
                    # Classical record flip: symptom is the annotation mask
                    # itself, independent of the quantum state.
                    _combine(faults, m_mask, flip)
                sens_x[q] ^= m_mask
        elif kind is GateKind.RESET:
            for q in ins.targets:
                sens_x[q] = 0
                sens_z[q] = 0
        elif kind is GateKind.NOISE1:
            p = ins.args[0]
            for q in ins.targets:
                if ins.name == "DEPOLARIZE1":
                    _combine(faults, sens_x[q], p / 3.0)
                    _combine(faults, sens_x[q] ^ sens_z[q], p / 3.0)
                    _combine(faults, sens_z[q], p / 3.0)
                elif ins.name == "X_ERROR":
                    _combine(faults, sens_x[q], p)
                elif ins.name == "Y_ERROR":
                    _combine(faults, sens_x[q] ^ sens_z[q], p)
                elif ins.name == "Z_ERROR":
                    _combine(faults, sens_z[q], p)
        elif kind is GateKind.NOISE2:
            p = ins.args[0] / 15.0
            for a, b in ins.target_groups():
                effects_a = (0, sens_x[a], sens_x[a] ^ sens_z[a], sens_z[a])
                effects_b = (0, sens_x[b], sens_x[b] ^ sens_z[b], sens_z[b])
                for ia in range(4):
                    for ib in range(4):
                        if ia == 0 and ib == 0:
                            continue
                        _combine(faults, effects_a[ia] ^ effects_b[ib], p)
        else:  # pragma: no cover
            raise NotImplementedError(ins.name)

    return faults


def oracle_faults(circuit: Circuit) -> list[FaultMechanism]:
    """The oracle's mechanisms, listed as ``DetectorErrorModel.faults`` is.

    Every bit of every mask is scanned, so the indices do not depend on
    how production code finds set bits.
    """
    nd = circuit.num_detectors
    size = (nd + circuit.num_observables + 7) // 8
    faults = []
    for mask, probability in extract_fault_mechanisms(circuit).items():
        octets = np.frombuffer(mask.to_bytes(size, "little"), dtype=np.uint8)
        bits = np.flatnonzero(np.unpackbits(octets, bitorder="little")).tolist()
        detectors = tuple(i for i in bits if i < nd)
        observables = tuple(i - nd for i in bits if i >= nd)
        faults.append(FaultMechanism(probability, detectors, observables))
    return sorted(faults, key=lambda f: (f.detectors, f.observables))
