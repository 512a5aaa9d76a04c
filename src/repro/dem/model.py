"""Structured detector error model built from the sampler's symptom table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.circuits import Circuit

if TYPE_CHECKING:
    from repro.sim.compiled import CompiledCircuit

__all__ = ["DetectorErrorModel", "FaultMechanism"]


def _index_tuples(padded: np.ndarray) -> list[tuple[int, ...]]:
    """Rows of a right-padded (-1) index array as tuples of Python ints."""
    keep = padded >= 0
    flat = padded[keep].tolist()
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]


@dataclass(frozen=True)
class FaultMechanism:
    """One independent error mechanism.

    Attributes
    ----------
    probability:
        Chance this mechanism fires in one shot (already XOR-combined over
        indistinguishable elementary faults).
    detectors:
        Indices of detectors it flips.
    observables:
        Indices of logical observables it flips.
    """

    probability: float
    detectors: tuple[int, ...]
    observables: tuple[int, ...]


class DetectorErrorModel:
    """The full fault-mechanism list of a noisy circuit.

    ``faults`` is read off the packed sampler of ``circuit`` (``compiled``
    if the caller has one, else compiled here), sorted by
    ``(detectors, observables)``.

    The decoding graphs for the two check bases are obtained with
    :meth:`projected`, which keeps only the basis's detectors/observables
    and re-merges mechanisms that become indistinguishable.
    """

    def __init__(self, circuit: Circuit, compiled: CompiledCircuit | None = None):
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        self.detector_basis = [det.basis for det in circuit.detectors]
        self.detector_coords = [det.coord for det in circuit.detectors]
        self.observable_basis = [obs.basis for obs in circuit.observables]
        if compiled is None:
            # Imported here: repro.sim imports this package.
            from repro.sim.compiled import compile_circuit

            compiled = compile_circuit(circuit)
        probability, detectors, observables = compiled.fault_mechanisms()
        self.faults: list[FaultMechanism] = [
            FaultMechanism(p, dets, obs)
            for p, dets, obs in zip(
                probability.tolist(), _index_tuples(detectors), _index_tuples(observables)
            )
        ]

    # ------------------------------------------------------------------
    def projected(self, basis: str) -> list[FaultMechanism]:
        """Mechanisms restricted to one basis's detectors and observables.

        The surface code detects and corrects X and Z errors independently
        (§IV-A); a Y fault appears in both projections.  Indices are
        *re-mapped* to a dense 0..n−1 range over the kept detectors, in the
        order they appear in the circuit.
        """
        if basis not in ("X", "Z"):
            raise ValueError("basis must be 'X' or 'Z'")
        det_map = {}
        for i, b in enumerate(self.detector_basis):
            if b == basis:
                det_map[i] = len(det_map)
        obs_map = {}
        for j, b in enumerate(self.observable_basis):
            if b == basis:
                obs_map[j] = len(obs_map)

        merged: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
        for fault in self.faults:
            detectors = tuple(det_map[i] for i in fault.detectors if i in det_map)
            observables = tuple(obs_map[j] for j in fault.observables if j in obs_map)
            if not detectors and not observables:
                continue
            key = (detectors, observables)
            existing = merged.get(key, 0.0)
            p = fault.probability
            merged[key] = existing + p - 2.0 * existing * p
        return [
            FaultMechanism(p, detectors, observables)
            for (detectors, observables), p in sorted(merged.items())
        ]

    def basis_detectors(self, basis: str) -> list[int]:
        """Original indices of the detectors belonging to ``basis``."""
        return [i for i, b in enumerate(self.detector_basis) if b == basis]

    def basis_observables(self, basis: str) -> list[int]:
        return [j for j, b in enumerate(self.observable_basis) if b == basis]

    def undetectable_logical_probability(self, basis: str) -> float:
        """Combined probability of faults that flip only the observable.

        These are invisible to any decoder; a sound circuit + detector set
        should make this zero (the test suite asserts it).
        """
        total = 0.0
        for fault in self.projected(basis):
            if not fault.detectors and fault.observables:
                total = total + fault.probability - 2.0 * total * fault.probability
        return total

    def __len__(self) -> int:
        return len(self.faults)
