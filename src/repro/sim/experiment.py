"""End-to-end logical-error-rate estimation for memory experiments.

Pipeline per experiment: build the noisy circuit → extract its detector
error model → build the basis matching graph → hand everything to the
batched Monte-Carlo engine (:mod:`repro.sim.engine`), which samples
detection events in bounded-memory batches of shot blocks, deduplicates
syndromes, and decodes each unique syndrome once — optionally sharded
across worker processes.  For a fixed ``seed`` the error count is
bit-identical regardless of ``workers``.

:func:`prepare_decoding` exposes the expensive middle of that pipeline
(DEM extraction + matching-graph + decoder construction) so that
multi-circuit campaigns (``repro.vlq``) can build it once per distinct
circuit shape and reuse it across qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decoders import MatchingGraph, SyndromeDecoder, make_decoder
from repro.dem import DetectorErrorModel
from repro.sim.engine import accumulate_decode_stats, count_logical_errors
from repro.sim.stats import wilson_interval
from repro.surface_code.extraction import MemoryCircuit

__all__ = ["DecodingSetup", "LogicalErrorResult", "prepare_decoding", "run_memory_experiment"]


@dataclass
class LogicalErrorResult:
    """Outcome of a logical memory Monte-Carlo run.

    ``logical_error_rate`` is per shot (i.e. per ``rounds`` of error
    correction, the paper's Figure 11 normalization).

    ``decode_stats`` carries the decode-tier occupancy of the run (see
    ``repro.decoders.batch.TIER_NAMES``); it is excluded from equality
    because the ``cached``/``full`` split depends on per-worker LRU
    state while the *counts* are the engine's determinism contract.
    """

    scheme: str
    basis: str
    distance: int
    rounds: int
    shots: int
    logical_errors: int
    undetectable_probability: float
    decoder: str
    decode_stats: dict = field(default_factory=dict, compare=False)

    @property
    def logical_error_rate(self) -> float:
        return self.logical_errors / self.shots

    @property
    def confidence_interval(self) -> tuple[float, float]:
        return wilson_interval(self.logical_errors, self.shots)

    def __str__(self) -> str:
        lo, hi = self.confidence_interval
        return (
            f"{self.scheme} d={self.distance} {self.basis}-memory: "
            f"p_L = {self.logical_error_rate:.2e} "
            f"[{lo:.2e}, {hi:.2e}] ({self.logical_errors}/{self.shots})"
        )


@dataclass
class DecodingSetup:
    """Everything the engine needs to decode one memory circuit."""

    dem: DetectorErrorModel
    graph: MatchingGraph
    decoder: SyndromeDecoder
    basis_detectors: list[int]
    basis_observables: list[int]


def prepare_decoding(memory: MemoryCircuit, decoder: str = "unionfind") -> DecodingSetup:
    """Build the DEM, matching graph and decoder for a memory circuit.

    The expensive, reusable part of :func:`run_memory_experiment`:
    campaigns cache the returned setup per distinct circuit shape.
    """
    dem = DetectorErrorModel(memory.circuit)
    graph = MatchingGraph.from_dem(dem, memory.basis)
    return DecodingSetup(
        dem=dem,
        graph=graph,
        decoder=make_decoder(decoder, graph),
        basis_detectors=dem.basis_detectors(memory.basis),
        basis_observables=dem.basis_observables(memory.basis),
    )


def run_memory_experiment(
    memory: MemoryCircuit,
    shots: int,
    decoder: str = "unionfind",
    seed: int | None = None,
    workers: int = 1,
    backend: str = "packed",
    decode_stats: dict | None = None,
    executor=None,
    unit: str = "memory",
) -> LogicalErrorResult:
    """Estimate the logical error rate of a memory circuit.

    Parameters
    ----------
    memory:
        Circuit from one of the architecture builders.
    shots:
        Monte-Carlo trials (the paper used 2,000,000 per point; see
        EXPERIMENTS.md for the fidelity/runtime trade-off).
    decoder:
        ``"unionfind"`` (fast, default) or ``"mwpm"`` (reference).
    workers:
        Worker processes for the sharded engine (1 = run inline).  Never
        changes the result for a fixed ``seed`` (see EXPERIMENTS.md).
    backend:
        Sampling backend: ``"packed"`` (compiled symptom-table sampler,
        default) or ``"reference"`` (bool-array per-instruction
        simulator).  Each backend has its own canonical random stream.
    decode_stats:
        Optional dict accumulating decode-tier occupancy over all batches
        (see :func:`repro.sim.engine.count_logical_errors`).  The stats
        are always collected and attached to the result's
        ``decode_stats`` field (a fresh dict per run); passing a dict
        here additionally accumulates this run's stats into it, so
        callers can sum across several runs without aliasing any single
        result's per-run record.
    executor:
        Optional durable executor (``repro.durable.DurableExecutor``,
        duck-typed via its ``count`` method).  When given, the run is
        checkpointed block-by-block to the executor's ledger under the
        ``unit`` label and can resume after interruption; ``workers``
        and supervision policy come from the executor, and quarantined
        blocks are excluded from ``shots`` (see EXPERIMENTS.md,
        "Durability & determinism contract").
    """
    setup = prepare_decoding(memory, decoder)
    stats: dict = {}
    if executor is not None:
        outcome = executor.count(
            unit=unit,
            circuit=memory.circuit,
            decoder=setup.decoder,
            basis_ids=setup.basis_detectors,
            obs_ids=setup.basis_observables,
            shots=shots,
            seed=seed,
            backend=backend,
            decode_stats=stats,
        )
        errors, shots = outcome.errors, outcome.shots
    else:
        errors = count_logical_errors(
            memory.circuit,
            setup.decoder,
            setup.basis_detectors,
            setup.basis_observables,
            shots,
            seed=seed,
            workers=workers,
            backend=backend,
            decode_stats=stats,
        )
    if decode_stats is not None:
        accumulate_decode_stats(decode_stats, stats)
    return LogicalErrorResult(
        scheme=memory.scheme,
        basis=memory.basis,
        distance=memory.code.distance,
        rounds=memory.rounds,
        shots=shots,
        logical_errors=errors,
        undetectable_probability=setup.graph.undetectable_probability,
        decoder=decoder,
        decode_stats=stats,
    )
