"""Error-sensitivity studies for Compact, Interleaved (§VI, Fig. 12).

Each panel fixes every error source at the paper's operating point
(2×10⁻³, Table-I coherence times, k = 10) and sweeps exactly one knob:

====================  =======================================================
SC-SC error           transmon-transmon two-qubit gate error
Load-Store error      load/store gate error
SC-Mode error         transmon-cavity two-qubit gate error
Cavity T1             cavity coherence time (seconds)
Transmon T1           transmon coherence time (seconds)
Load-Store duration   Δl/s (seconds)
Cavity size k         modes per cavity (delays between correction rounds)
====================  =======================================================

Unlike the threshold sweeps, coherence times do *not* co-scale here — the
whole point is isolating one knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.noise import MEMORY_HARDWARE, REFERENCE_PHYSICAL_ERROR, ErrorModel
from repro.sim import run_memory_experiment
from repro.threshold.estimator import build_memory_circuit

__all__ = [
    "SENSITIVITY_PANELS",
    "SensitivityPanel",
    "cavity_size_crossover",
    "run_sensitivity_panel",
]

_P0 = REFERENCE_PHYSICAL_ERROR


def _pinned_model(**overrides) -> ErrorModel:
    """The §VI operating point: everything pinned at 2e-3 / Table I."""
    hardware = overrides.pop("hardware", MEMORY_HARDWARE)
    return ErrorModel(hardware=hardware, p=_P0, scale_coherence=False, **overrides)


def _model_for(panel: str, x: float) -> ErrorModel:
    if panel == "sc_sc_error":
        return _pinned_model(p_2q=x)
    if panel == "load_store_error":
        return _pinned_model(p_ls=x)
    if panel == "sc_mode_error":
        return _pinned_model(p_tm=x)
    if panel == "cavity_t1":
        return _pinned_model(t1_cavity_override=x)
    if panel == "transmon_t1":
        return _pinned_model(t1_transmon_override=x)
    if panel == "load_store_duration":
        return _pinned_model(hardware=MEMORY_HARDWARE.with_(t_load_store=x))
    if panel == "cavity_size":
        return _pinned_model(hardware=MEMORY_HARDWARE.with_(cavity_modes=int(x)))
    raise ValueError(f"unknown sensitivity panel {panel!r}")


#: panel id -> (axis label, default sweep values, paper's reference value)
SENSITIVITY_PANELS: dict[str, tuple[str, tuple[float, ...], float]] = {
    "sc_sc_error": (
        "SC-SC Error Rate",
        tuple(np.logspace(-5, -2, 7)),
        _P0,
    ),
    "load_store_error": (
        "Load-Store Error Rate",
        tuple(np.logspace(-5, -2, 7)),
        _P0,
    ),
    "sc_mode_error": (
        "SC-Mode Interaction Error Rate",
        tuple(np.logspace(-5, -2, 7)),
        _P0,
    ),
    "cavity_t1": (
        "Cavity Coherence Time (s)",
        tuple(np.logspace(-5, -1, 7)),
        1e-3,
    ),
    "transmon_t1": (
        "Transmon Coherence Time (s)",
        tuple(np.logspace(-5, -1, 7)),
        100e-6,
    ),
    "load_store_duration": (
        "Load-Store Gate Duration (s)",
        tuple(np.logspace(-7, -4, 7)),
        150e-9,
    ),
    "cavity_size": (
        "Cavity Size k",
        (5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        10.0,
    ),
}


@dataclass
class SensitivityPanel:
    """One Fig. 12 panel: logical error rate vs one swept knob."""

    panel: str
    axis_label: str
    xs: list[float]
    reference_value: float
    scheme: str
    rates: dict[int, list[float]] = field(default_factory=dict)

    def slope_at_reference(self, distance: int) -> float:
        """Log-log slope near the reference value — the paper's
        "sensitivity" reading (pronounced slope = sensitive)."""
        xs = np.log(self.xs)
        ys = np.log(np.maximum(self.rates[distance], 1e-12))
        i = int(np.argmin(np.abs(xs - np.log(self.reference_value))))
        j = min(i + 1, len(xs) - 1)
        if i == j:
            i -= 1
        return float((ys[j] - ys[i]) / (xs[j] - xs[i]))


def run_sensitivity_panel(
    panel: str,
    distances: Sequence[int] = (3, 5, 7),
    xs: Sequence[float] | None = None,
    shots: int = 1000,
    scheme: str = "compact_interleaved",
    decoder: str = "unionfind",
    seed: int = 0,
    workers: int = 1,
    backend: str = "packed",
) -> SensitivityPanel:
    """Measure one sensitivity panel (default: Compact, Interleaved).

    ``workers``/``backend`` tune the Monte-Carlo engine only.
    """
    if panel not in SENSITIVITY_PANELS:
        raise ValueError(f"unknown panel {panel!r}; options: {sorted(SENSITIVITY_PANELS)}")
    axis_label, default_xs, reference = SENSITIVITY_PANELS[panel]
    xs = list(xs if xs is not None else default_xs)
    out = SensitivityPanel(
        panel=panel,
        axis_label=axis_label,
        xs=xs,
        reference_value=reference,
        scheme=scheme,
    )
    for d in distances:
        rates = []
        for i, x in enumerate(xs):
            model = _model_for(panel, x)
            memory = build_memory_circuit(scheme, d, model)
            result = run_memory_experiment(
                memory,
                shots=shots,
                decoder=decoder,
                seed=seed + 1000 * d + i,
                workers=workers,
                backend=backend,
            )
            rates.append(result.logical_error_rate)
        out.rates[d] = rates
    return out


def cavity_size_crossover(
    max_k: int = 400,
    distance: int = 3,
    scheme: str = "compact_interleaved",
) -> int:
    """Cavity size where decoherence overtakes all other error sources.

    §VI: "cavity decoherence error starts dominating after cavity size
    k ≈ 150; after this point it would be more beneficial to improve
    cavity coherence time."  We measure it from the detector error model:
    the smallest k at which the total fault-probability mass contributed by
    cavity idling exceeds the mass of every other mechanism combined.
    Cavity-idle mass is isolated by differencing against a model with an
    ideal (infinite-T1) cavity.
    """
    from repro.dem import DetectorErrorModel

    def fault_mass(model: ErrorModel) -> float:
        memory = build_memory_circuit(scheme, distance, model)
        dem = DetectorErrorModel(memory.circuit)
        return sum(dem.probability.tolist())

    k = 2
    while k <= max_k:
        hardware = MEMORY_HARDWARE.with_(cavity_modes=k)
        total = fault_mass(_pinned_model(hardware=hardware))
        without_cavity = fault_mass(
            _pinned_model(hardware=hardware, t1_cavity_override=float("inf"))
        )
        cavity_mass = total - without_cavity
        if cavity_mass > without_cavity:
            return k
        k = k + max(1, k // 4)
    return max_k
