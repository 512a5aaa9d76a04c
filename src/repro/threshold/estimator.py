"""Error-threshold estimation for the five evaluated setups (Fig. 11).

For each scheme, logical error rates are measured over a grid of physical
error rates and code distances; the threshold is where the distance curves
cross — below it, increasing d helps; above, it hurts.  Crossings are
located by log-log linear interpolation between consecutive-d curves and
averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.arch import compact_memory_circuit, natural_memory_circuit
from repro.noise import BASELINE_HARDWARE, MEMORY_HARDWARE, ErrorModel, HardwareParams
from repro.sim import LogicalErrorResult, run_memory_experiment
from repro.surface_code import baseline_memory_circuit
from repro.surface_code.extraction import MemoryCircuit

__all__ = [
    "SCHEMES",
    "ThresholdStudy",
    "build_memory_circuit",
    "default_hardware_for",
    "estimate_threshold",
]

#: The five setups of §IV-B / Fig. 11.
SCHEMES = (
    "baseline",
    "natural_all_at_once",
    "natural_interleaved",
    "compact_all_at_once",
    "compact_interleaved",
)

#: Paper-reported thresholds for comparison in reports (Fig. 11 captions).
PAPER_THRESHOLDS = {
    "baseline": 0.009,
    "natural_all_at_once": 0.009,
    "natural_interleaved": 0.008,
    "compact_all_at_once": 0.008,
    "compact_interleaved": 0.008,
}


def build_memory_circuit(
    scheme: str,
    distance: int,
    error_model: ErrorModel,
    basis: str = "Z",
    rounds: int | None = None,
) -> MemoryCircuit:
    """Dispatch a scheme name to its circuit builder."""
    if scheme == "baseline":
        return baseline_memory_circuit(distance, error_model, rounds, basis)
    if scheme.startswith("natural_"):
        return natural_memory_circuit(
            distance, error_model, rounds, basis, schedule=scheme[len("natural_") :]
        )
    if scheme.startswith("compact_"):
        return compact_memory_circuit(
            distance, error_model, rounds, basis, schedule=scheme[len("compact_") :]
        )
    raise ValueError(f"unknown scheme {scheme!r}; options: {SCHEMES}")


def default_hardware_for(scheme: str) -> HardwareParams:
    return BASELINE_HARDWARE if scheme == "baseline" else MEMORY_HARDWARE


@dataclass
class ThresholdStudy:
    """Results of one scheme's threshold sweep."""

    scheme: str
    basis: str
    physical_error_rates: list[float]
    distances: list[int]
    #: results[d][i] is the measurement at distances[d-index], p-rate i
    results: dict[int, list[LogicalErrorResult]] = field(default_factory=dict)

    def logical_rates(self, distance: int) -> list[float]:
        return [r.logical_error_rate for r in self.results[distance]]

    def _ordered_distances(self) -> list[int]:
        """Caller-ordered distances, validated against the results keys.

        Historically ``rows()`` and ``threshold_estimate()`` ordered by
        ``sorted(self.results)`` while ``self.distances`` kept caller
        order, so tables built with unsorted distances silently mismatched
        their headers.  Both now use ``self.distances``.
        """
        if sorted(self.results) != sorted(self.distances):
            raise ValueError(
                f"results keys {sorted(self.results)} do not match "
                f"distances {self.distances}"
            )
        return self.distances

    def threshold_estimate(self) -> float | None:
        """Average crossing point of consecutive-distance curves.

        Returns None when no crossing is bracketed by the sweep (e.g. all
        points on one side of the threshold).
        """
        return _mean_crossing(
            self.physical_error_rates,
            {d: self.logical_rates(d) for d in self._ordered_distances()},
            # max(): a durable point whose every block was quarantined
            # has no shots.
            lambda d: 0.5 / max(self.results[d][0].shots, 1),
        )

    def rows(self) -> list[tuple]:
        """Table rows (p, then one logical rate column per distance).

        Columns follow ``self.distances`` — the same order a caller would
        use for headers.
        """
        ds = self._ordered_distances()
        out = []
        for i, p in enumerate(self.physical_error_rates):
            out.append((p, *[self.results[d][i].logical_error_rate for d in ds]))
        return out


def _crossing(
    ps: Sequence[float],
    rates_low_d: Sequence[float],
    rates_high_d: Sequence[float],
    min_rate: float,
) -> float | None:
    """Log-log interpolated crossing of two logical-error curves.

    Rates below ``min_rate`` (e.g. zero observed errors) are clamped up to
    it before taking logs.  A grid point where *both* curves are clamped
    carries no ordering information — its gap is zero vacuously — so it
    can neither declare an exact crossing nor anchor an interpolation;
    at least one unclamped rate is required on each endpoint used.
    """

    def log_gap(i: int) -> float:
        a = max(rates_low_d[i], min_rate)
        b = max(rates_high_d[i], min_rate)
        return math.log(b) - math.log(a)

    def informative(i: int) -> bool:
        return rates_low_d[i] >= min_rate or rates_high_d[i] >= min_rate

    for i in range(len(ps) - 1):
        g0, g1 = log_gap(i), log_gap(i + 1)
        if g0 == 0.0:
            if informative(i):
                return ps[i]
            continue
        if not (informative(i) and informative(i + 1)):
            continue
        if g0 < 0.0 <= g1 or g1 <= 0.0 < g0:
            # Interpolate in log-p where the gap changes sign.
            x0, x1 = math.log(ps[i]), math.log(ps[i + 1])
            t = g0 / (g0 - g1)
            return math.exp(x0 + t * (x1 - x0))
    return None


def _mean_crossing(
    ps: Sequence[float],
    curves: Mapping[int, Sequence[float]],
    min_rate: Callable[[int], float],
) -> float | None:
    """Geometric mean of the crossings of consecutive-distance curves.

    ``curves`` maps each distance to its logical rates over ``ps``.
    Pairs walk numerically consecutive distances, whatever order the
    caller listed them in, and the pair starting at distance ``d``
    clamps its rates at ``min_rate(d)`` (see :func:`_crossing`).
    Returns None when no pair's crossing is bracketed by the sweep.
    """
    crossings = []
    ds = sorted(curves)
    for d1, d2 in zip(ds, ds[1:]):
        crossing = _crossing(ps, curves[d1], curves[d2], min_rate=min_rate(d1))
        if crossing is not None:
            crossings.append(crossing)
    if not crossings:
        return None
    return math.exp(sum(math.log(c) for c in crossings) / len(crossings))


def estimate_threshold(
    scheme: str,
    physical_error_rates: Sequence[float],
    distances: Sequence[int] = (3, 5, 7),
    shots: int = 2000,
    basis: str = "Z",
    decoder: str = "unionfind",
    seed: int | None = 0,
    hardware: HardwareParams | None = None,
    rounds: int | None = None,
    scale_coherence: bool = False,
    t1_cavity_override: float | None = None,
    workers: int = 1,
    backend: str = "packed",
    executor=None,
) -> ThresholdStudy:
    """Sweep p × d for one scheme and return the full study.

    ``workers`` and ``backend`` are forwarded to the Monte-Carlo engine;
    ``workers`` changes runtime, never the measured counts (``backend``
    selects a canonical random stream).
    ``executor`` (optional durable executor) checkpoints every sweep
    point under a ``scheme/d…/p…`` unit label, making the whole study
    resumable.

    The paper runs 2,000,000 trials per point; ``shots`` trades precision
    for runtime (see EXPERIMENTS.md).

    ``scale_coherence`` selects how §IV-A's "vary all gate errors and
    coherence times together" is interpreted.  The default pins coherence
    at the Table-I values across the sweep: under this reproduction's
    conservative (fully serialized) schedule durations, this is the
    interpretation that lands the thresholds in the paper's band — scaling
    T1 ∝ 1/p makes the long 2.5D service cycles decohere super-linearly
    near threshold and buries the crossings (see EXPERIMENTS.md).
    """
    hardware = hardware or default_hardware_for(scheme)
    study = ThresholdStudy(
        scheme=scheme,
        basis=basis,
        physical_error_rates=list(physical_error_rates),
        distances=list(distances),
    )
    for d in distances:
        row = []
        for i, p in enumerate(physical_error_rates):
            model = ErrorModel(
                hardware=hardware,
                p=p,
                scale_coherence=scale_coherence,
                t1_cavity_override=t1_cavity_override,
            )
            memory = build_memory_circuit(scheme, d, model, basis, rounds)
            result = run_memory_experiment(
                memory,
                shots=shots,
                decoder=decoder,
                seed=None if seed is None else seed + 1000 * d + i,
                workers=workers,
                backend=backend,
                executor=executor,
                unit=f"{scheme}/d{d}/p{i}",
            )
            row.append(result)
        study.results[d] = row
    return study
