"""Whole-matrix lint driver behind the ``repro lint`` CLI subcommand.

One call sweeps every registered program preset over the requested
embeddings × distances × refresh policies, and for each point:

* statically lints the compiled schedule (:mod:`repro.analyze.schedule`);
* lowers every *distinct* unit shape — the campaign's own enumeration
  (:func:`repro.vlq.campaign.program_units`): single-qubit memory
  circuits and, wherever the schedule has lattice-surgery CNOTs,
  merged-patch joint circuits — and proves its detectors/observables
  deterministic by symbolic GF(2) propagation
  (:mod:`repro.analyze.symbolic`), in strict-init mode so a dropped
  reset also surfaces;
* builds the DEM/matching-graph/union-find stack for each distinct
  shape and validates it (:mod:`repro.analyze.graph`).

Shapes are deduplicated across the whole sweep, mirroring the campaign
BuildCaches, so the driver stays fast enough for CI.  With
``oracle=True`` every symbolically-certified circuit is re-certified by
the stabilizer-tableau oracle and any disagreement is reported as an
internal SYM002 finding (the two must agree; a pinned test asserts it).
"""

from __future__ import annotations

from itertools import product

from repro.analyze.diagnostics import Diagnostic, LintReport
from repro.analyze.graph import lint_graph
from repro.analyze.schedule import lint_schedule
from repro.analyze.symbolic import tableau_oracle, verify_circuit
from repro.core.addresses import Machine
from repro.core.compiler import compile_program
from repro.decoders import MatchingGraph, UnionFindDecoder
from repro.dem import DetectorErrorModel
from repro.noise import MEMORY_HARDWARE, REFERENCE_PHYSICAL_ERROR, ErrorModel
from repro.vlq.campaign import PROGRAMS, build_program, program_units
from repro.vlq.surgery import partition_surgery

__all__ = ["lint_instruments", "lint_matrix"]


def lint_instruments(specs=None) -> LintReport:
    """OBS001: validate the obs instrument catalog (static, no execution).

    Every registered instrument must match the
    ``repro_<layer>_<name>_<unit>`` naming convention, carry a non-empty
    help string, and (for histograms) declare strictly-increasing fixed
    bucket edges — the properties exposition and deterministic snapshot
    merging rely on.  ``specs`` defaults to the full catalog; tests pass
    synthetic specs to pin that violations actually surface.
    """
    from repro.obs.catalog import CATALOG, check_spec

    report = LintReport()
    for spec in CATALOG if specs is None else specs:
        report.count("instruments")
        for problem in check_spec(spec):
            report.extend(
                [
                    Diagnostic(
                        "OBS001",
                        "error",
                        f"obs.catalog/{spec.name}",
                        problem,
                    )
                ]
            )
    return report


def lint_matrix(
    programs: tuple[str, ...] = tuple(sorted(PROGRAMS)),
    qubits: int = 4,
    distances: tuple[int, ...] = (3,),
    embeddings: tuple[str, ...] = ("natural", "compact"),
    refresh_policies: tuple[str, ...] = ("dram",),
    policies: tuple[str, ...] = ("auto", "surgery_only"),
    basis: str = "Z",
    cavity_modes: int = 10,
    stack_grid: tuple[int, int] = (2, 2),
    oracle: bool = False,
    strict_init: bool = True,
) -> LintReport:
    """Lint the full preset matrix; returns the aggregated report."""
    report = LintReport()
    # The instrument catalog is global and static — lint it once per
    # matrix run alongside the schedule/circuit/graph passes.
    report.merge(lint_instruments())
    error_model = ErrorModel(
        hardware=MEMORY_HARDWARE, p=REFERENCE_PHYSICAL_ERROR, scale_coherence=False
    )
    #: counter of each unit kind's distinct circuit shapes
    shape_counters = {"qubit": "circuit_shapes", "pair": "joint_shapes"}
    seen: set = set()
    points = product(programs, embeddings, distances, refresh_policies, policies)
    for name, embedding, distance, refresh, policy in points:
        machine = Machine(
            stack_grid=stack_grid,
            cavity_modes=cavity_modes,
            distance=distance,
            embedding=embedding,
        )
        schedule = compile_program(
            build_program(name, qubits),
            machine,
            policy=policy,
            insert_refresh=(refresh == "dram"),
        )
        report.count("schedules")
        location = f"{name}/{policy}/{embedding}/{refresh}/d{distance}"
        report.extend(lint_schedule(schedule, location=location))
        for unit in program_units(
            schedule,
            error_model,
            refresh=refresh,
            basis=basis,
            seed=None,
            partition=partition_surgery(schedule),
        ):
            if (unit.kind, unit.shape) in seen:
                continue
            seen.add((unit.kind, unit.shape))
            location = f"{name}/{policy}/{unit.label}"
            circuit = unit.lower().circuit
            report.count(shape_counters[unit.kind])
            findings = verify_circuit(
                circuit, strict_init=strict_init, location=location
            )
            report.extend(findings)
            if oracle and not findings:
                report.extend(tableau_oracle(circuit, location))
            report.count("graphs")
            dem = DetectorErrorModel(circuit)
            graph = MatchingGraph.from_dem(dem, basis)
            decoder = UnionFindDecoder(graph)
            report.extend(lint_graph(graph, dem, basis, decoder, location=location))
    return report
