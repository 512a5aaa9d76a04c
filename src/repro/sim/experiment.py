"""End-to-end logical-error-rate estimation for memory experiments.

Pipeline per experiment: build the noisy circuit → read its detector
error model off the packed sampler's symptom table → build the basis
matching graph → hand everything to the batched Monte-Carlo engine
(:mod:`repro.sim.engine`), which samples detection events in
bounded-memory batches of shot blocks, deduplicates syndromes, and
decodes each unique syndrome once — optionally sharded across worker
processes.  For a fixed ``seed`` the error count is
bit-identical regardless of ``workers``.

:func:`prepare_decoding` exposes the expensive middle of that pipeline
(DEM extraction + matching-graph + decoder construction) so that
multi-circuit campaigns (``repro.vlq``) can build it once per distinct
circuit shape and reuse it across qubits.  Each of its three stages runs
in a ``decode.prepare`` span and is timed into the
``repro_decode_prepare_seconds{stage}`` histogram when observability is on.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from repro import obs
from repro.decoders import MatchingGraph, SyndromeDecoder, make_decoder
from repro.dem import DetectorErrorModel
from repro.sim.compiled import CompiledCircuit
from repro.sim.engine import count_logical_errors, make_sampler
from repro.sim.stats import wilson_interval
from repro.surface_code.extraction import MemoryCircuit

__all__ = ["DecodingSetup", "LogicalErrorResult", "prepare_decoding", "run_memory_experiment"]


@dataclass
class LogicalErrorResult:
    """Outcome of a logical memory Monte-Carlo run.

    ``logical_error_rate`` is per shot (i.e. per ``rounds`` of error
    correction, the paper's Figure 11 normalization).  A durable run
    whose every block was quarantined has no completed shots: its rate
    is 0.0 and its interval the vacuous ``(0.0, 1.0)``.
    """

    scheme: str
    basis: str
    distance: int
    rounds: int
    shots: int
    logical_errors: int
    undetectable_probability: float
    decoder: str

    @property
    def logical_error_rate(self) -> float:
        return self.logical_errors / self.shots if self.shots > 0 else 0.0

    @property
    def confidence_interval(self) -> tuple[float, float]:
        if self.shots <= 0:
            return (0.0, 1.0)
        return wilson_interval(self.logical_errors, self.shots)

    def __str__(self) -> str:
        head = f"{self.scheme} d={self.distance} {self.basis}-memory: "
        if self.shots <= 0:
            return head + "no completed shots (every block was quarantined)"
        lo, hi = self.confidence_interval
        return (
            f"{head}p_L = {self.logical_error_rate:.2e} "
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


@contextmanager
def _prepare_stage(stage: str):
    """Span and time one cold-path stage of :func:`prepare_decoding`."""
    with obs.span("decode.prepare", stage=stage):
        t0 = perf_counter()
        yield
        seconds = perf_counter() - t0
        obs.histogram("repro_decode_prepare_seconds").observe(seconds, stage)


def prepare_decoding(
    memory: MemoryCircuit, decoder: str = "unionfind", sampler=None
) -> DecodingSetup:
    """Build the DEM, matching graph and decoder for a memory circuit.

    The expensive, reusable part of :func:`run_memory_experiment`:
    campaigns cache the returned setup per distinct circuit shape.
    ``sampler`` is an optional pre-built sampler of ``memory.circuit``
    (as for :func:`~repro.sim.engine.count_logical_errors`); a packed
    one already holds the symptom table the DEM is read from, so the
    circuit is not compiled again.
    """
    compiled = sampler if isinstance(sampler, CompiledCircuit) else None
    with _prepare_stage("dem"):
        dem = DetectorErrorModel(memory.circuit, compiled)
    with _prepare_stage("graph"):
        graph = MatchingGraph.from_dem(dem, memory.basis)
    with _prepare_stage("decoder"):
        built = make_decoder(decoder, graph)
    return DecodingSetup(
        dem=dem,
        graph=graph,
        decoder=built,
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
    executor:
        Optional durable executor (``repro.durable.DurableExecutor``,
        duck-typed via its ``count`` method).  When given, the run is
        checkpointed block-by-block to the executor's ledger under the
        ``unit`` label and can resume after interruption; ``workers``
        and supervision policy come from the executor, and quarantined
        blocks are excluded from ``shots`` (see EXPERIMENTS.md,
        "Durability & determinism contract").

    Decode-tier occupancy is recorded per ``decode_batch`` call and
    totalled only by the ``repro_decode_*`` registry counters (see
    :func:`repro.sim.engine.count_logical_errors`); a durable run also
    checkpoints each block's tiers in its ledger.
    """
    # One sampler serves the DEM and every block: a packed one holds the
    # symptom table the DEM is read from.
    sampler = make_sampler(memory.circuit, backend)
    setup = prepare_decoding(memory, decoder, sampler=sampler)
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
            sampler=sampler,
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
            sampler=sampler,
        )
    return LogicalErrorResult(
        scheme=memory.scheme,
        basis=memory.basis,
        distance=memory.code.distance,
        rounds=memory.rounds,
        shots=shots,
        logical_errors=errors,
        undetectable_probability=setup.graph.undetectable_probability,
        decoder=decoder,
    )
