"""The benchmark's workloads: cold path, one closed-loop campaign, checks.

Each workload exposes ``setup(seed)`` — the cold path, timed as
``setup_s`` and returning fresh state — and ``campaign(state, seed,
workdir)``, one campaign whose count call is the hot phase.  Inputs are
derived from the benchmark seed alone; the package under test receives
only circuits, programs and integer seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro.sim.engine as engine
import repro.sim.experiment as experiment
import repro.threshold as threshold
import repro.vlq.campaign as campaign
from repro.decoders import TIER_NAMES, BuildCache
from repro.durable import DurableExecutor, RunLedger
from repro.durable.ledger import parse_ledger
from repro.noise import ErrorModel
from repro.threshold.estimator import default_hardware_for

#: Shots per campaign (per unit for the program): one engine chunk of
#: sixteen 1024-shot blocks, so dedup sees the default chunk.
SHOTS = 16384

#: Shots of the program workload's priming pass: enough to run every
#: unit once, too few to warm the decoders' LRUs.
PRIMING_SHOTS = 64


def campaign_seed(seed: int, index: int) -> int:
    """Integer seed of campaign ``index`` in a run at benchmark ``seed``."""
    return seed * 65536 + index


def blocks_of(shots: int) -> int:
    return math.ceil(shots / engine.SHOT_BLOCK)


@dataclass
class Campaign:
    """One campaign's hot phase and what its checks found."""

    seconds: float  # wall time of the count call (the hot phase)
    shots: int  # unit-shots sampled and scored
    blocks: int  # 1024-shot blocks attempted
    errors: int  # logical errors over ``shots``
    signature: tuple  # counts that must repeat exactly at one seed
    problems: list[str] = field(default_factory=list)
    failed_blocks: int = 0
    counts: dict = field(default_factory=dict)


class MemoryWorkload:
    """Baseline-scheme memory at one (d, p), inline or on the durable fleet."""

    def __init__(self, name: str, distance: int, p: float, workers: int,
                 durable: bool, setup_repeats: int, traced_campaigns: int):
        self.name = name
        self.distance = distance
        self.p = p
        self.workers = workers
        self.durable = durable
        self.setup_repeats = setup_repeats
        self.traced_campaigns = traced_campaigns

    def setup(self, seed: int):
        """``build_memory_circuit`` + ``prepare_decoding`` + ``make_sampler``."""
        t0 = perf_counter()
        model = ErrorModel(
            hardware=default_hardware_for("baseline"), p=self.p, scale_coherence=False
        )
        memory = threshold.build_memory_circuit("baseline", self.distance, model)
        setup = experiment.prepare_decoding(memory)
        sampler = engine.make_sampler(memory.circuit, "packed")
        return (memory, setup, sampler), perf_counter() - t0

    def campaign(self, state, seed: int, workdir: Path,
                 workers: int | None = None) -> Campaign:
        memory, setup, sampler = state
        # Every campaign starts with an empty LRU, as a fresh process would.
        setup.decoder.reset_batch_state()
        args = (memory.circuit, setup.decoder, setup.basis_detectors, setup.basis_observables)
        if not self.durable:
            t0 = perf_counter()
            errors = engine.count_logical_errors(*args, SHOTS, seed=seed, sampler=sampler)
            seconds = perf_counter() - t0
            return Campaign(seconds, SHOTS, blocks_of(SHOTS), errors, (errors,))
        return self._durable_campaign(args, sampler, seed, workdir, workers or self.workers)

    def cache_hit_frac(self, state) -> float:
        return 0.0  # memory runs use no build caches

    def _durable_campaign(self, args, sampler, seed, workdir, workers) -> Campaign:
        circuit, decoder, basis_ids, obs_ids = args
        path = workdir / f"ledger-{seed}-w{workers}.jsonl"
        with RunLedger(path, {"workload": self.name, "seed": seed, "shots": SHOTS}) as ledger:
            executor = DurableExecutor(ledger, workers=workers)
            t0 = perf_counter()
            outcome = executor.count(
                unit="memory", circuit=circuit, decoder=decoder, basis_ids=basis_ids,
                obs_ids=obs_ids, shots=SHOTS, seed=seed, sampler=sampler,
            )
            seconds = perf_counter() - t0
        # Worker-side decode_batch calls are checked through the ledger:
        # each block record holds exactly one call's tier occupancy.
        parsed = parse_ledger(path)
        unit = parsed.units["memory"]
        records = list(parsed.blocks.get("memory", {}).values())
        problems = []
        if len(unit["completed"]) + len(unit["quarantined"]) != unit["scheduled"]:
            problems.append(f"durable unit: completed + quarantined != scheduled ({unit})")
        for record in records:
            stats = record["stats"]
            if sum(stats[t] for t in TIER_NAMES) != stats["unique"]:
                problems.append(f"block {record['block']}: tiers do not sum to unique")
        counts = {
            "durable.blocks": outcome.executed_blocks,
            "durable.retries": executor.total_retries,
            "durable.quarantined": len(outcome.quarantined),
            "durable.fallback_blocks": sum(1 for r in records if r["stats"].get("fallback")),
            "durable.ledger_bytes": path.stat().st_size,
        }
        path.unlink()
        return Campaign(
            seconds, outcome.shots, outcome.scheduled, outcome.errors, (outcome.errors,),
            problems, len(outcome.quarantined), counts,
        )


class _KeepingCache(BuildCache):
    """A ``BuildCache`` that also lists the values it built.

    The program workload clears every shared decoder's LRU before a
    campaign, so no campaign can replay syndromes an earlier one decoded.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.built: list = []

    def get(self, key, build):
        def build_and_keep():
            value = build()
            self.built.append(value)
            return value

        return super().get(key, build_and_keep)


#: ``compare_architectures`` arguments of the program workload (the
#: default ``repro compare --correlated`` path at d=3).
PROGRAM_SWEEP = dict(
    distances=(3,),
    embeddings=("compact", "natural"),
    refresh_policies=("dram",),
    p=1e-3,
    correlated=True,
    policy="surgery_only",
)


class ProgramWorkload:
    """A compiled VLQ program compared across embeddings, inline, no ledger."""

    name = "program-d3-compare"
    durable = False
    setup_repeats = 5
    traced_campaigns = 2

    def setup(self, seed: int):
        """A priming pass at minimal shots into fresh shared build caches."""
        t0 = perf_counter()
        program = campaign.build_program("pairs", 4)
        caches = {
            "lowering_cache": _KeepingCache("lowering"),
            "graph_cache": _KeepingCache("decoder-graph"),
            "joint_cache": _KeepingCache("joint-lowering"),
            "joint_graph_cache": _KeepingCache("joint-graph"),
        }
        campaign.compare_architectures(
            program, shots=PRIMING_SHOTS, seed=campaign_seed(seed, 65535),
            **PROGRAM_SWEEP, **caches,
        )
        return (program, caches), perf_counter() - t0

    def campaign(self, state, seed: int, workdir: Path,
                 workers: int | None = None) -> Campaign:
        program, caches = state
        for setup in caches["graph_cache"].built + caches["joint_graph_cache"].built:
            setup.decoder.reset_batch_state()
        t0 = perf_counter()
        result = campaign.compare_architectures(
            program, shots=SHOTS, seed=seed, **PROGRAM_SWEEP, **caches
        )
        seconds = perf_counter() - t0
        # Units are the per-qubit runs plus the jointly decoded pairs;
        # single-qubit pieces repeat a per-qubit result and are not recounted.
        units = [q.result for row in result.rows for q in row.per_qubit]
        units += [pc.result for row in result.rows for pc in row.pieces if len(pc.qubits) == 2]
        signature = tuple(
            (
                tuple(q.result.logical_errors for q in row.per_qubit),
                tuple(pc.result.logical_errors for pc in row.pieces),
            )
            for row in result.rows
        )
        problems = [
            f"{row.embedding}: {row.uncovered_windows} uncovered surgery windows"
            for row in result.rows
            if row.uncovered_windows
        ]
        return Campaign(
            seconds,
            sum(u.shots for u in units),
            sum(blocks_of(u.shots) for u in units),
            sum(u.logical_errors for u in units),
            signature,
            problems,
        )

    def cache_hit_frac(self, state) -> float:
        stats = [cache.stats() for cache in state[1].values()]
        hits = sum(s["hits"] for s in stats)
        misses = sum(s["misses"] for s in stats)
        return hits / (hits + misses) if hits + misses else 0.0


WORKLOADS = {
    w.name: w
    for w in (
        MemoryWorkload("memory-d7-threshold", distance=7, p=5e-3, workers=1, durable=False,
                       setup_repeats=9, traced_campaigns=4),
        MemoryWorkload("memory-d11-durable", distance=11, p=1e-3, workers=2, durable=True,
                       setup_repeats=3, traced_campaigns=2),
        ProgramWorkload(),
    )
}
