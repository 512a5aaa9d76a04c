"""Structured detector error model built from the sensitivity pass."""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits import Circuit
from repro.dem.sensitivity import extract_fault_mechanisms

__all__ = ["DetectorErrorModel", "FaultMechanism"]


def _set_bits(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of ``mask``, lowest bit first.

    Linear in the number of set bits (each step strips the lowest one),
    where a scan over every possible index is linear in the mask width.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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

    The decoding graphs for the two check bases are obtained with
    :meth:`projected`, which keeps only the basis's detectors/observables
    and re-merges mechanisms that become indistinguishable.
    """

    def __init__(self, circuit: Circuit):
        self.num_detectors = circuit.num_detectors
        self.num_observables = circuit.num_observables
        self.detector_basis = [det.basis for det in circuit.detectors]
        self.detector_coords = [det.coord for det in circuit.detectors]
        self.observable_basis = [obs.basis for obs in circuit.observables]
        self.faults: list[FaultMechanism] = []
        det_bits = (1 << self.num_detectors) - 1
        obs_bits = (1 << self.num_observables) - 1
        for mask, probability in extract_fault_mechanisms(circuit).items():
            detectors = _set_bits(mask & det_bits)
            observables = _set_bits(mask >> self.num_detectors & obs_bits)
            self.faults.append(FaultMechanism(probability, detectors, observables))
        self.faults.sort(key=lambda f: (f.detectors, f.observables))

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
