"""Multi-circuit Monte-Carlo campaigns over compiled VLQ programs.

:func:`run_program_experiment` compiles a logical program onto a 2.5D
machine, splits the schedule into *units* (:func:`program_units`) and
pushes each unit's noisy circuit through the batched engine.  A unit is
either one qubit's timeline lowered on its own
(:mod:`repro.vlq.lowering`) or, in correlated mode, a lattice-surgery
pair lowered to one merged-patch circuit (:mod:`repro.vlq.surgery`).
Both kinds run the same path: the unit's certified lowering and
compiled sampler come from its kind's lowering cache, its DEM, matching
graph and decoder from its kind's decoder-graph cache, and it is counted
in process or, given an executor, durably under its ledger label.

Work is shared aggressively across the campaign: units whose timelines
have the same *shape* share one lowering, one certificate, one packed
sampler and one decoder setup.  All four caches (lowering and
decoder-graph, for each kind) are :class:`repro.decoders.BuildCache`
instances with hit/miss accounting (the CI smoke job gates on hits >
0), and all can be passed in so a whole architecture sweep shares them.

Certification: every distinct shape is proven deterministic by symbolic
GF(2) propagation (:mod:`repro.analyze.symbolic`) before any noisy shot
is drawn, and ``oracle_cert`` cross-checks it on the stabilizer tableau
simulator.

Determinism: qubit ``i`` (in sorted-qubit order) runs with seed
``seed + 104729·i``; within each run the engine's SeedSequence block
contract makes the count bit-identical for any ``workers``.  The
whole campaign is therefore a pure function of
``(program, machine, noise, seed)`` per backend.

Correlated mode (``correlated=True``) additionally partitions the
program's qubits into *pieces* along the schedule's lattice-surgery
CNOTs: each surgery-coupled pair is one more unit, decoded jointly over
both operands' observables, so ``p_program`` no longer assumes the
operands of a surgery fail independently.  Pair units run with seeds
``seed + 15485863·(pair index + 1)`` — disjoint from the per-qubit
streams, so the independent estimates stay bit-identical with the
uncorrelated mode.

:func:`compare_architectures` sweeps Compact-vs-Natural machines ×
refresh policy × code distance — the paper's architectural comparison
expressed over whole programs instead of a single static patch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Sequence

from repro import obs
from repro.core import (
    CompiledSchedule,
    LogicalProgram,
    Machine,
    compile_program,
)
from repro.decoders import BuildCache
from repro.noise import MEMORY_HARDWARE, REFERENCE_PHYSICAL_ERROR, ErrorModel
from repro.sim import (
    LogicalErrorResult,
    count_logical_errors,
    make_sampler,
    prepare_decoding,
    wilson_interval,
)
from repro.surface_code.extraction import MemoryCircuit
from repro.vlq.lowering import LoweringSpec, lower_timeline, timeline_shape
from repro.vlq.surgery import (
    JointLoweringSpec,
    SurgeryPartition,
    certify_joint_deterministic,
    joint_shape,
    lower_joint_timelines,
    partition_surgery,
)

__all__ = [
    "PROGRAMS",
    "REFRESH_POLICIES",
    "ArchitectureComparison",
    "PieceExperiment",
    "ProgramExperimentResult",
    "ProgramUnit",
    "QubitExperiment",
    "build_program",
    "compare_architectures",
    "program_units",
    "run_program_experiment",
]

#: Refresh policies of :func:`run_program_experiment`: ``"dram"`` keeps
#: the compiler's inserted refresh breaks *and* lowers the background
#: refresh rounds; ``"none"`` compiles without breaks and drops the
#: background rounds, so stored qubits only decohere (the ablation that
#: shows why the paper's DRAM discipline exists).
REFRESH_POLICIES = ("dram", "none")

#: Seed stride between qubits of one campaign (a prime, so per-qubit
#: streams never collide with the engine's internal block spawning).
_QUBIT_SEED_STRIDE = 104729

#: Seed stride between joint pieces (a larger prime with an offset, so
#: pair streams are disjoint from the per-qubit streams and the
#: independent estimates stay bit-identical with uncorrelated runs).
_PAIR_SEED_STRIDE = 15485863

#: Canned logical programs for the CLI, benchmarks and tests.
PROGRAMS = {
    "pairs": LogicalProgram.bell_pairs,
    "ghz": LogicalProgram.ghz,
    "t": LogicalProgram.t_teleport,
}


def _cache(cache: BuildCache | None, name: str) -> BuildCache:
    """``cache``, or a fresh one called ``name`` (an empty cache is falsy)."""
    return cache if cache is not None else BuildCache(name)


def build_program(name: str, qubits: int) -> LogicalProgram:
    """Instantiate one of the canned programs by name."""
    try:
        factory = PROGRAMS[name]
    except KeyError:
        raise ValueError(f"unknown program {name!r}; options: {sorted(PROGRAMS)}")
    return factory(qubits)


@dataclass
class QubitExperiment:
    """One logical qubit's lowered circuit and Monte-Carlo outcome."""

    qubit: int
    shape: tuple
    result: LogicalErrorResult

    @property
    def logical_error_rate(self) -> float:
        return self.result.logical_error_rate


@dataclass
class PieceExperiment:
    """One circuit piece of a correlated campaign.

    A piece is either a single qubit (its independent memory run doubles
    as the piece outcome) or a lattice-surgery pair decoded jointly over
    the merged-patch circuit — ``logical_errors`` then counts shots
    where *either* operand's observable was mispredicted.
    """

    qubits: tuple[int, ...]
    windows: int
    shape: tuple
    result: LogicalErrorResult

    @property
    def logical_error_rate(self) -> float:
        return self.result.logical_error_rate


@dataclass
class ProgramExperimentResult:
    """A compiled program's noisy Monte-Carlo outcome, per qubit and whole.

    The program-level failure estimate treats the per-qubit runs as
    independent (they are: disjoint seed streams, and the lowering
    models each qubit's patch in isolation):
    ``p_program = 1 − Π(1 − p_q)``.

    A correlated run additionally carries ``pieces`` — surgery-coupled
    pairs decoded jointly on merged-patch circuits plus the remaining
    single qubits — and ``joint_program_error_rate`` combines *those*
    (pieces are genuinely independent: disjoint circuits and seed
    streams), capturing the correlation the per-qubit product cannot.
    """

    embedding: str
    refresh: str
    distance: int
    shots: int
    policy: str
    schedule: CompiledSchedule
    per_qubit: list[QubitExperiment]
    pieces: list[PieceExperiment] | None = None
    uncovered_windows: int = 0

    @property
    def program_error_rate(self) -> float:
        survival = 1.0
        for qubit in self.per_qubit:
            survival *= 1.0 - qubit.logical_error_rate
        return 1.0 - survival

    @property
    def correlated(self) -> bool:
        return self.pieces is not None

    @property
    def joint_program_error_rate(self) -> float:
        """``1 − Π(1 − p_piece)`` over the correlated pieces."""
        if self.pieces is None:
            raise ValueError("not a correlated run (pieces were not computed)")
        survival = 1.0
        for piece in self.pieces:
            survival *= 1.0 - piece.logical_error_rate
        return 1.0 - survival

    @property
    def joint_confidence_interval(self) -> tuple[float, float]:
        return wilson_interval(self.joint_program_error_rate * self.shots, self.shots)

    @property
    def confidence_interval(self) -> tuple[float, float]:
        """Wilson interval on the program failure estimate.

        Uses the product estimate's effective success count over
        ``shots`` trials — exact for one qubit, and a tight
        approximation while per-qubit rates are small (failures of
        different qubits rarely coincide in a shot).
        """
        return wilson_interval(self.program_error_rate * self.shots, self.shots)

    @property
    def worst_qubit_rate(self) -> float:
        return max(q.logical_error_rate for q in self.per_qubit)

    def __str__(self) -> str:
        lo, hi = self.confidence_interval
        text = (
            f"{self.embedding}/{self.refresh} d={self.distance}: "
            f"p_program = {self.program_error_rate:.2e} [{lo:.2e}, {hi:.2e}] "
            f"({len(self.per_qubit)} qubits, {self.shots} shots/qubit)"
        )
        if self.pieces is not None:
            text += f", joint p_program = {self.joint_program_error_rate:.2e}"
        return text


@dataclass(frozen=True)
class ProgramUnit:
    """One circuit of a compiled program: the campaign's unit of work.

    A ``"qubit"`` unit lowers one qubit's timeline; a ``"pair"`` unit
    lowers a surgery-coupled pair, over its ``windows`` shared surgery
    spans, to one merged-patch circuit.  ``shape`` keys the kind's build
    caches (equal shapes lower identically), ``seed`` is the engine seed
    and ``label`` the ledger label that resume finds the unit's blocks
    by.  ``lower`` builds the noisy circuit, uncertified.
    """

    kind: str
    qubits: tuple[int, ...]
    windows: int
    shape: tuple
    seed: int | None
    label: str
    lower: Callable[[], MemoryCircuit]


def program_units(
    schedule: CompiledSchedule,
    error_model: ErrorModel,
    *,
    refresh: str,
    basis: str,
    seed: int | None,
    partition: SurgeryPartition | None,
    rounds_per_timestep: int = 1,
) -> list[ProgramUnit]:
    """A compiled program's units, in the order a campaign runs them.

    Every qubit first, in sorted order, then ``partition``'s surgery
    pairs (none without a partition) in its order.  Labels are
    ``<embedding>/<refresh>/d<distance>/q<qubit>`` and
    ``.../pair<k>:q<a>+q<b>``; seeds follow the module docstring.
    """
    machine = schedule.machine
    prefix = f"{machine.embedding}/{refresh}/d{machine.distance}"
    geometry = dict(
        distance=machine.distance,
        embedding=machine.embedding,
        basis=basis,
        rounds_per_timestep=rounds_per_timestep,
        refresh=(refresh == "dram"),
    )
    spec = LoweringSpec(**geometry)
    units = []
    for index, qubit in enumerate(sorted(schedule.residences)):
        timeline = schedule.qubit_timeline(qubit)
        units.append(
            ProgramUnit(
                kind="qubit",
                qubits=(qubit,),
                windows=0,
                shape=timeline_shape(timeline, spec),
                seed=None if seed is None else seed + _QUBIT_SEED_STRIDE * index,
                label=f"{prefix}/q{qubit}",
                lower=partial(lower_timeline, timeline, error_model, spec),
            )
        )
    if partition is None:
        return units
    jspec = JointLoweringSpec(**geometry)
    for index, ((qa, qb), spans) in enumerate(partition.pairs):
        ta = schedule.qubit_timeline(qa)
        tb = schedule.qubit_timeline(qb)
        units.append(
            ProgramUnit(
                kind="pair",
                qubits=(qa, qb),
                windows=len(spans),
                shape=joint_shape(ta, tb, spans, jspec),
                seed=None if seed is None else seed + _PAIR_SEED_STRIDE * (index + 1),
                label=f"{prefix}/pair{index}:q{qa}+q{qb}",
                lower=partial(lower_joint_timelines, ta, tb, spans, error_model, jspec),
            )
        )
    return units


def _run_unit(
    unit: ProgramUnit,
    lowering_cache: BuildCache,
    graph_cache: BuildCache,
    error_model: ErrorModel,
    *,
    shots: int,
    decoder: str,
    workers: int,
    backend: str,
    oracle_cert: bool,
    executor,
) -> LogicalErrorResult:
    """Build (or reuse) one unit's circuit and decoder, then count it."""
    qubits = "+".join(map(str, unit.qubits))

    def certified_lowering():
        obs.counter("repro_campaign_lowerings_total").inc(1, unit.kind)
        with obs.span("campaign.lower", kind=unit.kind, qubits=qubits):
            lowered = unit.lower()
            certify_joint_deterministic(lowered, oracle=oracle_cert)
            return lowered, make_sampler(lowered.circuit, backend)

    memory, sampler = lowering_cache.get(
        (unit.shape, error_model, backend), certified_lowering
    )
    setup = graph_cache.get(
        (unit.shape, error_model, decoder),
        partial(prepare_decoding, memory, decoder, sampler),
    )
    t0 = perf_counter()
    with obs.span("campaign.unit", kind=unit.kind, qubits=qubits):
        if executor is not None:
            outcome = executor.count(
                unit=unit.label,
                circuit=memory.circuit,
                decoder=setup.decoder,
                basis_ids=setup.basis_detectors,
                obs_ids=setup.basis_observables,
                shots=shots,
                seed=unit.seed,
                backend=backend,
                sampler=sampler,
            )
            errors, unit_shots = outcome.errors, outcome.shots
        else:
            unit_shots = shots
            errors = count_logical_errors(
                memory.circuit,
                setup.decoder,
                setup.basis_detectors,
                setup.basis_observables,
                shots,
                seed=unit.seed,
                workers=workers,
                backend=backend,
                sampler=sampler,
            )
    reg = obs.active()
    if reg is not None:
        reg.counter("repro_campaign_units_total").inc(1, unit.kind)
        reg.counter("repro_campaign_shots_total").inc(unit_shots)
        reg.histogram("repro_campaign_unit_seconds").observe(
            perf_counter() - t0, unit.kind
        )
    return LogicalErrorResult(
        scheme=memory.scheme,
        basis=memory.basis,
        distance=memory.code.distance,
        rounds=memory.rounds,
        shots=unit_shots,
        logical_errors=errors,
        undetectable_probability=setup.graph.undetectable_probability,
        decoder=decoder,
    )


def run_program_experiment(
    program: LogicalProgram,
    machine: Machine,
    error_model: ErrorModel | None = None,
    *,
    shots: int = 2000,
    basis: str = "Z",
    policy: str = "auto",
    refresh: str = "dram",
    rounds_per_timestep: int = 1,
    decoder: str = "unionfind",
    seed: int | None = 0,
    workers: int = 1,
    backend: str = "packed",
    lowering_cache: BuildCache | None = None,
    graph_cache: BuildCache | None = None,
    correlated: bool = False,
    oracle_cert: bool = False,
    joint_cache: BuildCache | None = None,
    joint_graph_cache: BuildCache | None = None,
    executor=None,
) -> ProgramExperimentResult:
    """Compile, lower and Monte-Carlo one program on one machine.

    Parameters mirror :func:`repro.sim.run_memory_experiment` where they
    overlap; ``policy`` is the compiler's CNOT policy, ``refresh`` one
    of :data:`REFRESH_POLICIES`, and the caches (fresh ones are created
    when omitted) may be shared across calls to reuse builds between
    sweep points: ``lowering_cache``/``graph_cache`` serve qubit units,
    ``joint_cache``/``joint_graph_cache`` pair units.

    With ``correlated=True`` the schedule's lattice-surgery pairs are
    additionally lowered as merged-patch circuits and decoded jointly
    (see the module docstring).  Surgery components of three or more
    qubits fall back to independent pieces and are reported via
    ``uncovered_windows`` and the
    ``repro_campaign_uncovered_windows_total`` counter.

    Each distinct shape is certified once, when first built
    (:func:`~repro.vlq.surgery.certify_joint_deterministic`);
    ``oracle_cert`` adds the sampled stabilizer-tableau cross-check (the
    CLI's ``--oracle-cert``).

    ``executor`` (optional, duck-typed ``repro.durable.DurableExecutor``)
    runs every unit through the durable checkpointing path under its
    ledger label, so an interrupted campaign resumes mid-program without
    redoing finished units — and without touching the build caches,
    which are repopulated deterministically per shape on the resumed
    process.
    """
    if refresh not in REFRESH_POLICIES:
        raise ValueError(f"refresh must be one of {REFRESH_POLICIES}")
    if error_model is None:
        error_model = ErrorModel(
            hardware=MEMORY_HARDWARE,
            p=REFERENCE_PHYSICAL_ERROR,
            scale_coherence=False,
        )
    caches = {
        "qubit": (
            _cache(lowering_cache, "lowering"),
            _cache(graph_cache, "decoder-graph"),
        ),
        "pair": (
            _cache(joint_cache, "joint-lowering"),
            _cache(joint_graph_cache, "joint-graph"),
        ),
    }
    schedule = compile_program(
        program, machine, policy=policy, insert_refresh=(refresh == "dram")
    )
    partition = partition_surgery(schedule) if correlated else None
    if partition is not None and partition.uncovered_windows:
        obs.counter("repro_campaign_uncovered_windows_total").inc(
            partition.uncovered_windows
        )
    per_qubit: list[QubitExperiment] = []
    pairs: list[PieceExperiment] = []
    for unit in program_units(
        schedule,
        error_model,
        refresh=refresh,
        basis=basis,
        rounds_per_timestep=rounds_per_timestep,
        seed=seed,
        partition=partition,
    ):
        result = _run_unit(
            unit,
            *caches[unit.kind],
            error_model,
            shots=shots,
            decoder=decoder,
            workers=workers,
            backend=backend,
            oracle_cert=oracle_cert,
            executor=executor,
        )
        if unit.kind == "qubit":
            per_qubit.append(QubitExperiment(unit.qubits[0], unit.shape, result))
        else:
            pairs.append(PieceExperiment(unit.qubits, unit.windows, unit.shape, result))
    pieces: list[PieceExperiment] | None = None
    if partition is not None:
        paired = partition.paired_qubits
        pieces = pairs + [
            PieceExperiment((qubit.qubit,), 0, qubit.shape, qubit.result)
            for qubit in per_qubit
            if qubit.qubit not in paired
        ]
        pieces.sort(key=lambda piece: piece.qubits)
    return ProgramExperimentResult(
        embedding=machine.embedding,
        refresh=refresh,
        distance=machine.distance,
        shots=shots,
        policy=policy,
        schedule=schedule,
        per_qubit=per_qubit,
        pieces=pieces,
        uncovered_windows=0 if partition is None else partition.uncovered_windows,
    )


@dataclass
class ArchitectureComparison:
    """A compact-vs-natural × refresh × distance sweep over one program."""

    program_name: str
    num_qubits: int
    shots: int
    rows: list[ProgramExperimentResult]
    lowering_cache: BuildCache
    graph_cache: BuildCache
    joint_cache: BuildCache | None = None
    joint_graph_cache: BuildCache | None = None

    def table_rows(self) -> list[tuple]:
        """Rows for an ASCII report: one line per sweep point."""
        out = []
        for row in self.rows:
            lo, hi = row.confidence_interval
            out.append(
                (
                    row.embedding,
                    row.refresh,
                    row.distance,
                    f"{row.program_error_rate:.2e}",
                    f"[{lo:.2e}, {hi:.2e}]",
                    f"{row.worst_qubit_rate:.2e}",
                    row.schedule.total_timesteps,
                    row.schedule.refresh_rounds,
                    row.schedule.refresh_violations,
                )
            )
        return out

    TABLE_HEADERS = (
        "embedding",
        "refresh",
        "d",
        "p_program",
        "wilson 95%",
        "worst qubit",
        "timesteps",
        "bg refresh",
        "violations",
    )

    def correlated_table_rows(self) -> list[tuple]:
        """Side-by-side independent-vs-joint rows (correlated sweeps).

        A row with uncovered surgery windows marks its joint cell ``*``
        (see :data:`UNCOVERED_FOOTNOTE`): some of its surgery was not
        decoded jointly, so the rate is not a joint estimate.
        """
        out = []
        for row in self.rows:
            if row.pieces is None:
                raise ValueError("sweep was not run with correlated=True")
            independent = row.program_error_rate
            joint = row.joint_program_error_rate
            lo, hi = row.joint_confidence_interval
            pairs = sum(1 for piece in row.pieces if len(piece.qubits) == 2)
            out.append(
                (
                    row.embedding,
                    row.refresh,
                    row.distance,
                    f"{independent:.2e}",
                    f"{joint:.2e}" + ("*" if row.uncovered_windows else ""),
                    f"[{lo:.2e}, {hi:.2e}]",
                    f"{joint - independent:+.2e}",
                    f"{pairs}+{len(row.pieces) - pairs}",
                    sum(piece.windows for piece in row.pieces),
                    row.uncovered_windows,
                )
            )
        return out

    CORRELATED_TABLE_HEADERS = (
        "embedding",
        "refresh",
        "d",
        "independent",
        "joint",
        "joint wilson 95%",
        "delta",
        "pieces (2q+1q)",
        "windows",
        "uncovered",
    )

    #: Printed under a correlated table with any ``*`` joint cell.
    UNCOVERED_FOOTNOTE = (
        "* not a joint estimate: surgery components of three or more qubits "
        "were decoded as independent pieces ('uncovered' windows)"
    )

    def uncovered_rows(self) -> list[str]:
        """``"embedding/refresh d=N (K windows)"`` per row with uncovered windows."""
        return [
            f"{row.embedding}/{row.refresh} d={row.distance} "
            f"({row.uncovered_windows} window{'s' if row.uncovered_windows != 1 else ''})"
            for row in self.rows
            if row.uncovered_windows
        ]


def compare_architectures(
    program: LogicalProgram,
    distances: Sequence[int] = (3,),
    embeddings: Sequence[str] = ("compact", "natural"),
    refresh_policies: Sequence[str] = REFRESH_POLICIES,
    *,
    p: float = REFERENCE_PHYSICAL_ERROR,
    shots: int = 2000,
    stack_grid: tuple[int, int] = (2, 2),
    cavity_modes: int | None = None,
    basis: str = "Z",
    policy: str = "auto",
    rounds_per_timestep: int = 1,
    decoder: str = "unionfind",
    seed: int | None = 0,
    workers: int = 1,
    backend: str = "packed",
    program_name: str = "program",
    correlated: bool = False,
    oracle_cert: bool = False,
    executor=None,
    lowering_cache=None,
    graph_cache=None,
    joint_cache=None,
    joint_graph_cache=None,
) -> ArchitectureComparison:
    """Run the end-to-end architecture comparison for one program.

    Every (embedding, refresh policy, distance) combination gets its own
    machine and compiled schedule, but the lowering and decoder-graph
    caches (and, in correlated mode, the joint-shape caches) are shared
    across the whole sweep, so any shape recurrence — across qubits,
    pairs, policies or embeddings — is built exactly once.  Passing the
    caches in extends that sharing across *calls*: the campaign service
    hands every job the same long-lived caches, so a shape built for one
    job is free for every later job that reuses it.

    ``executor`` makes the sweep durable: unit labels already encode
    (embedding, refresh, distance, qubit/pair), so every sweep point
    checkpoints into one shared ledger and an interrupted comparison
    resumes exactly where it stopped.
    """
    modes = MEMORY_HARDWARE.cavity_modes if cavity_modes is None else cavity_modes
    lowering_cache = _cache(lowering_cache, "lowering")
    graph_cache = _cache(graph_cache, "decoder-graph")
    joint_cache = _cache(joint_cache, "joint-lowering") if correlated else None
    joint_graph_cache = _cache(joint_graph_cache, "joint-graph") if correlated else None
    error_model = ErrorModel(hardware=MEMORY_HARDWARE, p=p, scale_coherence=False)
    rows = []
    for embedding in embeddings:
        for refresh in refresh_policies:
            for distance in distances:
                machine = Machine(
                    stack_grid=stack_grid,
                    cavity_modes=modes,
                    distance=distance,
                    embedding=embedding,
                )
                rows.append(
                    run_program_experiment(
                        program,
                        machine,
                        error_model,
                        shots=shots,
                        basis=basis,
                        policy=policy,
                        refresh=refresh,
                        rounds_per_timestep=rounds_per_timestep,
                        decoder=decoder,
                        seed=seed,
                        workers=workers,
                        backend=backend,
                        lowering_cache=lowering_cache,
                        graph_cache=graph_cache,
                        correlated=correlated,
                        oracle_cert=oracle_cert,
                        joint_cache=joint_cache,
                        joint_graph_cache=joint_graph_cache,
                        executor=executor,
                    )
                )
    return ArchitectureComparison(
        program_name=program_name,
        num_qubits=program.num_qubits,
        shots=shots,
        rows=rows,
        lowering_cache=lowering_cache,
        graph_cache=graph_cache,
        joint_cache=joint_cache,
        joint_graph_cache=joint_graph_cache,
    )
