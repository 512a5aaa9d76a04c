"""Structured detector error model built from the sampler's symptom table.

The stored form is arrays, one row per mechanism; :class:`FaultMechanism`
objects are built from them on demand.  The grouping helpers here also
serve the sampler's own fold and the matching graph's edge merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.circuits import Circuit

if TYPE_CHECKING:
    from repro.sim.compiled import CompiledCircuit

__all__ = ["DetectorErrorModel", "FaultMechanism", "group_ends", "group_starts", "xor_scan"]


def _index_tuples(padded: np.ndarray) -> list[tuple[int, ...]]:
    """Rows of a right-padded (-1) index array as tuples of Python ints."""
    keep = padded >= 0
    flat = padded[keep].tolist()
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]


def _kept_indices(padded: np.ndarray, bases: list[str], basis: str) -> np.ndarray:
    """Rows of a right-padded (-1) index array restricted to ``basis``.

    Kept indices are renumbered densely in their original order, so each
    row still ascends; the others become padding, moved to the right.
    """
    lookup = np.full(len(bases) + 1, -1, np.int32)  # lookup[-1]: padding
    kept = np.flatnonzero([b == basis for b in bases])
    lookup[kept] = np.arange(kept.size, dtype=np.int32)
    mapped = lookup[padded]
    padding = np.iinfo(np.int32).max  # sorts last
    mapped[mapped < 0] = padding
    mapped.sort(axis=1)
    mapped[mapped == padding] = -1
    return mapped[:, : int(np.count_nonzero(mapped >= 0, axis=1).max(initial=0))]


def xor_scan(probability: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Running XOR-combination within groups of consecutive entries.

    Group ``g`` runs from ``first[g]`` to the next group's first entry.
    Entry ``i`` of the result folds ``e + p − 2ep`` over its group up to
    and including ``i``, one entry at a time and in order, as a
    sequential loop would; all groups advance together.  A group's
    combined probability is the result at its last entry.
    """
    size = np.diff(np.append(first, len(probability)))
    running = probability.copy()
    live, j = np.flatnonzero(size > 1), 1
    while live.size:
        at = first[live] + j
        e, q = running[at - 1], probability[at]
        running[at] = e + q - 2.0 * e * q
        j += 1
        live = live[size[live] > j]
    return running


def group_starts(*arrays: np.ndarray) -> np.ndarray:
    """Indices of the rows that differ from their predecessor in any of
    ``arrays`` (2-D, with equal row counts)."""
    new = np.zeros(len(arrays[0]), dtype=bool)
    new[:1] = True
    for rows in arrays:
        new[1:] |= (rows[1:] != rows[:-1]).any(axis=1)
    return np.flatnonzero(new)


def group_ends(first: np.ndarray, size: int) -> np.ndarray:
    """Index of each group's last entry, given its first (``size`` entries)."""
    ends = np.empty_like(first)
    ends[:-1] = first[1:] - 1
    ends[-1:] = size - 1
    return ends


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

    Stored as the arrays that the packed sampler of ``circuit``
    (``compiled`` if the caller has one, else compiled here) returns from
    :meth:`~repro.sim.compiled.CompiledCircuit.fault_mechanisms`: one row
    per mechanism, sorted by ``(detectors, observables)``.
    ``probability`` is float64; ``detectors`` and ``observables`` are
    int32 index rows, ascending and right-padded with -1.  ``faults``
    builds the same list as :class:`FaultMechanism` objects on demand.

    The decoding graphs for the two check bases are built from
    :meth:`projected_arrays`, which keeps only the basis's
    detectors/observables and re-merges mechanisms that become
    indistinguishable; :meth:`projected` is its object view.
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
        self.probability, self.detectors, self.observables = compiled.fault_mechanisms()

    @property
    def faults(self) -> list[FaultMechanism]:
        """Every mechanism as a :class:`FaultMechanism`, built on each call."""
        return _mechanisms(self.probability, self.detectors, self.observables)

    # ------------------------------------------------------------------
    def projected_arrays(self, basis: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mechanisms restricted to one basis's detectors and observables.

        The surface code detects and corrects X and Z errors independently
        (§IV-A); a Y fault appears in both projections.  Indices are
        *re-mapped* to a dense 0..n−1 range over the kept detectors, in the
        order they appear in the circuit.  Mechanisms left with an empty
        symptom are dropped, and mechanisms that now share a symptom merge
        ``e + p − 2ep`` in model order.

        Returns ``(probability, detectors, observables)`` in the layout of
        the model's own arrays, sorted by ``(detectors, observables)``.
        """
        if basis not in ("X", "Z"):
            raise ValueError("basis must be 'X' or 'Z'")
        detectors = _kept_indices(self.detectors, self.detector_basis, basis)
        observables = _kept_indices(self.observables, self.observable_basis, basis)
        nonempty = np.flatnonzero(
            (detectors >= 0).any(axis=1) | (observables >= 0).any(axis=1)
        )
        if nonempty.size == 0:
            return np.empty(0), detectors[:0], observables[:0]
        # lexsort is stable, so each group keeps model order for the fold.
        keys = (*observables[nonempty].T[::-1], *detectors[nonempty].T[::-1])
        order = nonempty[np.lexsort(keys)]
        detectors, observables = detectors[order], observables[order]
        first = group_starts(detectors, observables)
        running = xor_scan(self.probability[order], first)
        return running[group_ends(first, len(order))], detectors[first], observables[first]

    def projected(self, basis: str) -> list[FaultMechanism]:
        """:meth:`projected_arrays` as :class:`FaultMechanism` objects."""
        return _mechanisms(*self.projected_arrays(basis))

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
        probability, detectors, _ = self.projected_arrays(basis)
        total = 0.0
        for p in probability[~(detectors >= 0).any(axis=1)].tolist():
            total = total + p - 2.0 * total * p
        return total

    def __len__(self) -> int:
        return len(self.probability)


def _mechanisms(
    probability: np.ndarray, detectors: np.ndarray, observables: np.ndarray
) -> list[FaultMechanism]:
    return [
        FaultMechanism(p, dets, obs)
        for p, dets, obs in zip(
            probability.tolist(), _index_tuples(detectors), _index_tuples(observables)
        )
    ]
