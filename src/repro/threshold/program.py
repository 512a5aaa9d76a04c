"""Program-level threshold estimation (ROADMAP: "threshold sweeps over
programs").

:func:`estimate_threshold` sweeps a *single static patch*; a compiled
program is a different object — per-qubit timelines with idle windows,
refresh rounds and (in correlated mode) merged surgery windows.  The
program threshold is the physical error rate at which growing the code
distance stops helping the *whole program*: below it the program-level
failure ``p_program`` falls with d, above it rises.  This driver sweeps
:func:`repro.vlq.compare_architectures` over p × d for one (embedding,
refresh policy) and locates the crossing with the same log-log
interpolation the patch-level estimator uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core import LogicalProgram
from repro.threshold.estimator import _mean_crossing
from repro.vlq import compare_architectures

__all__ = ["ProgramThresholdStudy", "estimate_program_threshold"]


@dataclass
class ProgramThresholdStudy:
    """Results of one program's threshold sweep."""

    program_name: str
    embedding: str
    refresh: str
    correlated: bool
    physical_error_rates: list[float]
    distances: list[int]
    #: rates[d][i] is p_program at ``physical_error_rates[i]``
    rates: dict[int, list[float]] = field(default_factory=dict)
    #: uncovered_windows[d][i] counts the surgery windows at that point
    #: decoded as independent pieces (components of three or more
    #: qubits); a correlated rate with any is not a joint estimate
    uncovered_windows: dict[int, list[int]] = field(default_factory=dict)
    shots: int = 0

    def threshold_estimate(self) -> float | None:
        """Average crossing of consecutive-distance ``p_program`` curves.

        Returns None when no crossing is bracketed by the sweep.
        """
        return _mean_crossing(
            self.physical_error_rates,
            {d: self.rates[d] for d in self.distances},
            lambda d: 0.5 / max(self.shots, 1),
        )

    def rows(self) -> list[tuple]:
        """Table rows: p, then one ``p_program`` column per distance."""
        return [
            (p, *[self.rates[d][i] for d in self.distances])
            for i, p in enumerate(self.physical_error_rates)
        ]

    def uncovered_points(self) -> list[str]:
        """``"d=N p=P (K windows)"`` per sweep point with uncovered windows."""
        return [
            f"d={d} p={p:g} ({n} window{'s' if n != 1 else ''})"
            for d in self.distances
            for p, n in zip(self.physical_error_rates, self.uncovered_windows[d])
            if n
        ]


def estimate_program_threshold(
    program: LogicalProgram,
    physical_error_rates: Sequence[float],
    distances: Sequence[int] = (3, 5),
    embedding: str = "compact",
    refresh: str = "dram",
    *,
    shots: int = 2000,
    correlated: bool = False,
    policy: str = "auto",
    stack_grid: tuple[int, int] = (2, 2),
    decoder: str = "unionfind",
    seed: int | None = 0,
    workers: int = 1,
    backend: str = "packed",
    program_name: str = "program",
    executor=None,
) -> ProgramThresholdStudy:
    """Sweep p × d for one program and return the full study.

    A thin driver over :func:`repro.vlq.compare_architectures`: one
    sweep point per physical error rate, all distances in one campaign
    so the lowering/decoder caches are shared within a point.  With
    ``correlated=True`` the swept quantity is the joint (merged-window)
    ``p_program`` instead of the independence product.  ``executor``
    makes the sweep durable; each point's units are namespaced
    ``p<i>/...`` so the shared ledger stays collision-free.
    """
    study = ProgramThresholdStudy(
        program_name=program_name,
        embedding=embedding,
        refresh=refresh,
        correlated=correlated,
        physical_error_rates=list(physical_error_rates),
        distances=list(distances),
        rates={d: [] for d in distances},
        uncovered_windows={d: [] for d in distances},
        shots=shots,
    )
    for i, p in enumerate(physical_error_rates):
        comparison = compare_architectures(
            program,
            distances=tuple(distances),
            embeddings=(embedding,),
            refresh_policies=(refresh,),
            p=p,
            shots=shots,
            stack_grid=stack_grid,
            policy=policy,
            decoder=decoder,
            seed=None if seed is None else seed + 9973 * i,
            workers=workers,
            backend=backend,
            program_name=program_name,
            correlated=correlated,
            executor=None if executor is None else executor.with_prefix(f"p{i}/"),
        )
        for row in comparison.rows:
            rate = (
                row.joint_program_error_rate if correlated else row.program_error_rate
            )
            study.rates[row.distance].append(rate)
            study.uncovered_windows[row.distance].append(row.uncovered_windows)
    return study
