"""Batched, sharded Monte-Carlo engine.

The unit of reproducibility is the *shot block*: shots are partitioned
into fixed-size blocks of :data:`SHOT_BLOCK` (the partition depends only
on the total shot count), and ``np.random.SeedSequence(seed).spawn`` gives
every block its own independent child stream.  A block's sampled data —
and hence its logical-error count — is therefore a pure function of
``(circuit, seed, block index)``.  Summing per-block counts makes the
total **bit-identical for any ``workers``**, durable or not; the knob
only chooses which process handles which blocks.

Two sampling backends implement that contract:

- ``"packed"`` (default): the circuit is compiled **once** per
  :func:`count_logical_errors` call into a
  :class:`~repro.sim.compiled.CompiledCircuit` — its fused noise draws
  plus a CSR table of every noise location's detector/observable
  symptoms — and shipped once per worker when the fleet is armed, not
  rebuilt per block.
- ``"reference"``: the original per-instruction bool-array
  :class:`~repro.sim.frame.FrameSimulator`, kept as the semantic oracle.

Each backend defines its own canonical random stream (see
``repro/sim/compiled.py``); within a backend, results are deterministic
and invariant to ``workers`` at fixed seed.

:func:`run_block` is the one function that samples, decodes and scores
shot blocks; :func:`repro.durable.supervise.run_supervised` is the one
way blocks fan out to processes, for plain and durable runs alike.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np

from repro import obs
from repro.circuits import Circuit
from repro.decoders.batch import TIER_NAMES, SyndromeDecoder
from repro.sim.compiled import compile_circuit
from repro.sim.frame import DetectionData, sample_detection_data

__all__ = [
    "BACKENDS",
    "BlockExecutionError",
    "SHOT_BLOCK",
    "block_seeds",
    "check_count_args",
    "count_logical_errors",
    "decode_block_full",
    "make_sampler",
    "run_block",
    "shot_blocks",
]

#: RNG granularity: shots per independently-seeded block.  Fixed, so
#: results are invariant to how blocks are batched or distributed.
SHOT_BLOCK = 1024

#: Blocks per ``decode_batch`` call in an in-process run (16384 shots).
#: Cross-block syndrome dedup pays here: at d=3, one block per call
#: decoded 41% more kernel rows and lost 4-13% of end-to-end throughput.
_INLINE_BATCH_BLOCKS = 16

#: Sampling backends accepted by :func:`count_logical_errors`.
BACKENDS = ("packed", "reference")


def shot_blocks(shots: int) -> list[int]:
    """Partition ``shots`` into the canonical block sizes.

    Full :data:`SHOT_BLOCK`-sized blocks plus one trailing remainder; the
    partition is a function of ``shots`` alone.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    sizes = [SHOT_BLOCK] * (shots // SHOT_BLOCK)
    if shots % SHOT_BLOCK:
        sizes.append(shots % SHOT_BLOCK)
    return sizes


def block_seeds(
    shots: int, seed: int | None = None
) -> list[tuple[int, int, np.random.SeedSequence]]:
    """The canonical ``(index, shots, SeedSequence)`` triple per block.

    This is the engine's entire RNG contract in one place: block ``i``
    of an ``shots``-shot run at ``seed`` always receives the ``i``-th
    spawn of ``SeedSequence(seed)``, so a block's sampled data is a pure
    function of ``(circuit, seed, i)`` — the addressable unit of work
    that durable/resumable campaigns checkpoint.
    """
    sizes = shot_blocks(shots)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    return list(zip(range(len(sizes)), sizes, seeds))


def check_count_args(obs_ids: Sequence[int], workers: int) -> None:
    """Reject a unit no block of which could run, before any block does.

    Shared by :func:`count_logical_errors` and the durable executor, so
    neither retries and quarantines a permanent error as if transient.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if len(obs_ids) > 63:
        raise ValueError(
            f"cannot pack {len(obs_ids)} observables into an int64 mask "
            "(at most 63 observables per basis are supported)"
        )


def _seed_label(seed: np.random.SeedSequence) -> str:
    return f"entropy={seed.entropy}, spawn_key={seed.spawn_key}"


class BlockExecutionError(RuntimeError):
    """A shot block failed inside the engine.

    The message pins the failing block index and its SeedSequence
    identity so the failure is reproducible from the message alone —
    replay with ``run_block`` at that index, no worker required.
    """

    def __init__(self, message: str, block: int, seed_label: str):
        super().__init__(message)
        self.block = block
        self.seed_label = seed_label


class _ReferenceSampler:
    """The bool-array per-instruction simulator behind the block protocol."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

    def sample(self, shots: int, seed) -> DetectionData:
        return sample_detection_data(self.circuit, shots, np.random.default_rng(seed))


def make_sampler(circuit: Circuit, backend: str):
    """Build the per-block sampler for ``backend`` (compiled once here)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; options: {BACKENDS}")
    obs.counter("repro_engine_sampler_compiles_total").inc(1, backend)
    with obs.span("engine.compile", backend=backend):
        t0 = perf_counter()
        if backend == "packed":
            sampler = compile_circuit(circuit)
        else:
            sampler = _ReferenceSampler(circuit)
        seconds = perf_counter() - t0
        obs.histogram("repro_engine_compile_seconds").observe(seconds, backend)
    return sampler


def _pack_observables(observables: np.ndarray, obs_ids: Sequence[int]) -> np.ndarray:
    """Pack the basis observable columns into one int64 mask per shot."""
    if len(obs_ids) > 63:
        raise ValueError(
            f"cannot pack {len(obs_ids)} observables into an int64 mask "
            "(at most 63 observables per basis are supported)"
        )
    packed = np.zeros(observables.shape[0], dtype=np.int64)
    for bit, j in enumerate(obs_ids):
        packed |= observables[:, j].astype(np.int64) << bit
    return packed


def decode_block_full(
    decoder: SyndromeDecoder, dets: np.ndarray
) -> tuple[np.ndarray, dict[str, int]]:
    """Tier-free fallback decode: every unique syndrome through ``decode``.

    The graceful-degradation path of :func:`run_block` — when the tiered
    dispatcher raises (a tier assertion, or an injected decode fault),
    the blocks are re-decoded with nothing but the full decoder, which
    the tiers are provably equivalent to, so the error count is
    preserved.  Stats keep the tier-sum == unique identity with
    everything heavy in ``full``, and reach the decode registry through
    the decoder's ``_record_stats`` like any other decode call.
    """
    dets = np.asarray(dets, dtype=bool)
    shots = dets.shape[0]
    packed = (
        np.packbits(dets, axis=1) if dets.shape[1] else np.zeros((shots, 0), np.uint8)
    )
    _, index, inverse = np.unique(packed, axis=0, return_index=True, return_inverse=True)
    unique_dets = dets[index]
    predictions = np.zeros(len(index), dtype=np.int64)
    trivial = 0
    for k in range(len(index)):
        events = np.flatnonzero(unique_dets[k])
        if events.size == 0:
            trivial += 1
            continue
        predictions[k] = decoder._checked_decode(events.tolist())
    tiers = {tier: 0 for tier in TIER_NAMES}
    tiers["trivial"] = trivial
    tiers["full"] = len(index) - trivial
    decoder._record_stats(shots, tiers, unique=len(index))
    stats = {**tiers, "unique": len(index), "shots": shots}
    return predictions[np.asarray(inverse).ravel()], stats


def run_block(
    sampler,
    decoder: SyndromeDecoder,
    basis_ids: Sequence[int],
    obs_ids: Sequence[int],
    blocks: Sequence[tuple[int, int, np.random.SeedSequence]],
    *,
    fresh_decoder_state: bool = True,
    fault=None,
    unit: str = "",
) -> tuple[int, dict[str, int]]:
    """Sample, decode and score ``(index, shots, seed)`` shot blocks.

    All blocks go through one ``decode_batch`` call, so a syndrome
    repeated across them is decoded once.  Returns the logical-error
    count and that call's decode-tier occupancy (see
    ``repro.decoders.batch.TIER_NAMES``), the record a durable ledger
    checkpoints per block.

    With ``fresh_decoder_state`` (the default) the decoder's cross-batch
    LRU is cleared first, so the returned ``(errors, stats)`` pair is a
    pure function of ``(sampler, blocks)`` — bit-identical no matter
    which worker runs it, in what order, or after which others.  That
    purity is what makes checkpointed results safe to resume from and
    byte-comparable across interrupted and uninterrupted runs.

    A sampling failure raises :class:`BlockExecutionError` naming the
    block and its seed.  A decode failure — a real tier assertion, or
    one injected by ``fault.check_decode(unit, index)`` (duck-typed; see
    ``repro.durable.faults.FaultPlan``) — degrades to the tier-free
    :func:`decode_block_full`, sets ``stats["fallback"]`` and counts
    ``repro_engine_decode_fallbacks_total``.  Stats whose tiers do not
    sum to ``unique`` raise :class:`BlockExecutionError`: that is
    misrouting, which a fallback would hide.
    """
    reg = obs.active()
    t0 = perf_counter() if reg is not None else 0.0
    if fresh_decoder_state:
        decoder.reset_batch_state()
    # Preallocate and fill block by block, so peak detector memory is one
    # batch (a concatenate of per-block slices would transiently double it).
    total = sum(block_shots for _, block_shots, _ in blocks)
    dets = np.empty((total, len(basis_ids)), dtype=bool)
    actual = np.empty(total, dtype=np.int64)
    at = 0
    for index, block_shots, seed in blocks:
        try:
            data = sampler.sample(block_shots, seed)
            dets[at : at + data.shots] = data.detectors[:, basis_ids]
            actual[at : at + data.shots] = _pack_observables(data.observables, obs_ids)
        except Exception as exc:
            raise BlockExecutionError(
                f"sampling block {index} ({_seed_label(seed)}) failed: {exc!r}",
                index,
                _seed_label(seed),
            ) from exc
        at += data.shots
    t1 = perf_counter() if reg is not None else 0.0
    try:
        if fault is not None:
            for index, _, _ in blocks:
                fault.check_decode(unit, index)
        predictions = decoder.decode_batch(dets)
        stats = dict(decoder.last_batch_stats or {})
    except Exception:
        try:
            predictions, stats = decode_block_full(decoder, dets)
        except Exception as exc:
            index, _, seed = blocks[0]
            raise BlockExecutionError(
                f"decoding from block {index} ({_seed_label(seed)}) failed "
                f"even in the tier-free fallback: {exc!r}",
                index,
                _seed_label(seed),
            ) from exc
        stats["fallback"] = 1
        obs.counter("repro_engine_decode_fallbacks_total").inc()
    if sum(stats.get(tier, 0) for tier in TIER_NAMES) != stats.get("unique"):
        index, _, seed = blocks[0]
        raise BlockExecutionError(
            f"decoding from block {index} ({_seed_label(seed)}): decode tiers "
            f"do not sum to the unique syndromes: {stats}",
            index,
            _seed_label(seed),
        )
    errors = int(np.count_nonzero(predictions != actual))
    if reg is not None:
        t2 = perf_counter()
        reg.counter("repro_engine_shots_total").inc(total)
        reg.counter("repro_engine_blocks_total").inc(len(blocks))
        reg.counter("repro_engine_logical_errors_total").inc(errors)
        reg.histogram("repro_engine_sample_seconds").observe(t1 - t0)
        reg.histogram("repro_engine_decode_seconds").observe(t2 - t1)
        reg.histogram("repro_engine_chunk_seconds").observe(t2 - t0)
    return errors, stats


def count_logical_errors(
    circuit: Circuit,
    decoder: SyndromeDecoder,
    basis_ids: Sequence[int],
    obs_ids: Sequence[int],
    shots: int,
    seed: int | None = None,
    workers: int = 1,
    backend: str = "packed",
    sampler=None,
) -> int:
    """Count shots whose decoded prediction disagrees with the truth.

    Decode-tier occupancy is not returned: :func:`run_block` checks each
    call's tiers, and the ``repro_decode_*`` registry counters are the
    only total across calls (arm them with ``repro.obs.enable()``, or
    ``--obs-dir`` on the CLI).

    Parameters
    ----------
    workers:
        ``1`` runs in process, :data:`_INLINE_BATCH_BLOCKS` blocks per
        :func:`run_block` call, keeping the decoder's LRU across calls.
        More fans blocks out to supervised worker processes, one block
        per call; a block still failing after the supervisor's retries
        raises :class:`BlockExecutionError`, so no shots are dropped.
    backend:
        ``"packed"`` (compiled symptom-table sampler, default) or
        ``"reference"`` (per-instruction bool-array simulator).  Each is
        deterministic and worker-invariant, but they define different
        canonical random streams, so counts agree across backends
        statistically rather than bitwise.
    sampler:
        Optional pre-built sampler (the object :func:`make_sampler`
        returns for this ``circuit``/``backend``), so multi-circuit
        campaigns compile each distinct circuit shape once and reuse it
        across calls.  When omitted, the circuit is compiled here.
    """
    check_count_args(obs_ids, workers)
    if sampler is None:
        sampler = make_sampler(circuit, backend)
    blocks = block_seeds(shots, seed)
    errors = 0
    with obs.span("engine.count", shots=shots, workers=workers, backend=backend):
        if workers == 1:
            for i in range(0, len(blocks), _INLINE_BATCH_BLOCKS):
                batch_errors, _ = run_block(
                    sampler, decoder, basis_ids, obs_ids,
                    blocks[i : i + _INLINE_BATCH_BLOCKS],
                    fresh_decoder_state=False,
                )
                errors += batch_errors
            return errors
        # Imported here: the supervisor module imports this one.
        from repro.durable.supervise import run_supervised

        result = run_supervised(
            blocks, (sampler, decoder, basis_ids, obs_ids), unit="", workers=workers
        )
    if result.quarantined:
        failed = min(result.quarantined, key=lambda outcome: outcome.index)
        label = _seed_label(blocks[failed.index][2])
        raise BlockExecutionError(
            f"block {failed.index} ({label}) failed {failed.attempts} "
            f"attempt(s): {failed.failure}", failed.index, label,
        )
    return sum(outcome.errors for outcome in result.completed)
