"""Detector error model (DEM) extraction.

Converts a noisy circuit into the list of *fault mechanisms*: for every
elementary Pauli fault the circuit can suffer, the set of detectors and
logical observables it flips, with probabilities XOR-combined across
mechanisms with identical symptoms.  The list is read off the packed
sampler's symptom table
(:meth:`repro.sim.compiled.CompiledCircuit.fault_mechanisms`), so the
decoding graphs built from it match the simulated error model by
construction: sampler and decoder share one backward pass.

The model keeps the list as that method's grouped arrays, and the cold
path (basis projection, matching graph, union-find lowering) passes
arrays along; :class:`FaultMechanism` objects are built only on demand,
for tests, ``repro lint`` and the rare mechanism the graph decomposes.
"""

from repro.dem.model import DetectorErrorModel, FaultMechanism

__all__ = ["DetectorErrorModel", "FaultMechanism"]
