"""Batched, sharded Monte-Carlo engine.

The unit of reproducibility is the *shot block*: shots are partitioned
into fixed-size blocks of :data:`SHOT_BLOCK` (the partition depends only
on the total shot count), and ``np.random.SeedSequence(seed).spawn`` gives
every block its own independent child stream.  A block's sampled data —
and hence its logical-error count — is therefore a pure function of
``(circuit, seed, block index)``.  Summing per-block counts makes the
total **bit-identical for any ``workers`` or ``chunk_size``**; those knobs
only choose which process handles which blocks and how many blocks are
materialized at once.

Two sampling backends implement that contract:

- ``"packed"`` (default): the circuit is lowered **once** per
  :func:`count_logical_errors` call into a
  :class:`~repro.sim.compiled.CompiledCircuit` — fused vectorized ops over
  uint64 bit-planes plus sparse GF(2) detector/observable matrices — and
  shipped once per worker via the pool initializer, not rebuilt per chunk.
- ``"reference"``: the original per-instruction bool-array
  :class:`~repro.sim.frame.FrameSimulator`, kept as the semantic oracle.

Each backend defines its own canonical random stream (see
``repro/sim/compiled.py``); within a backend, results are deterministic
and invariant to ``workers``/``chunk_size`` at fixed seed.

A *chunk* is a run of consecutive blocks sized by ``chunk_size``: the
memory high-water mark (one detector array of ``chunk_size`` rows per
in-flight chunk) and the multiprocessing work unit.  Within a chunk the
syndromes of all its blocks are decoded together through
``decoder.decode_batch``, so duplicate syndromes across the whole chunk
are decoded once.
"""

from __future__ import annotations

import multiprocessing
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
    "DEFAULT_CHUNK_SIZE",
    "SHOT_BLOCK",
    "accumulate_decode_stats",
    "block_seeds",
    "count_logical_errors",
    "decode_block_full",
    "make_sampler",
    "run_block",
    "shot_blocks",
]

#: RNG granularity: shots per independently-seeded block.  Fixed — never
#: derived from ``chunk_size`` — so results are invariant to chunking.
SHOT_BLOCK = 1024

#: Default shots materialized (and batch-decoded) per chunk.
DEFAULT_CHUNK_SIZE = 16384

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


def _seed_label(seed: np.random.SeedSequence) -> str:
    return f"entropy={seed.entropy}, spawn_key={seed.spawn_key}"


class BlockExecutionError(RuntimeError):
    """A shot block (or chunk of blocks) failed inside the engine.

    The message pins the failing block index and its SeedSequence
    identity so the failure is reproducible from the message alone —
    replay with ``run_block`` at that index, no pool required.
    """

    def __init__(self, message: str, block: int, seed_label: str):
        super().__init__(message)
        self.block = block
        self.seed_label = seed_label

    def __reduce__(self):
        # Keep the custom fields across pickling (worker -> pool parent).
        return (type(self), (str(self), self.block, self.seed_label))


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
        if backend == "packed":
            return compile_circuit(circuit)
        return _ReferenceSampler(circuit)


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


def _run_chunk(
    sampler,
    decoder: SyndromeDecoder,
    basis_ids: Sequence[int],
    obs_ids: Sequence[int],
    blocks: list[tuple[int, int, np.random.SeedSequence]],
) -> tuple[int, dict[str, int]]:
    """Sample, decode and score one chunk of ``(index, shots, seed)`` blocks.

    Returns the chunk's logical-error count and the decode-tier occupancy
    of its ``decode_batch`` call (see ``repro.decoders.batch.TIER_NAMES``).
    Any failure is re-raised as :class:`BlockExecutionError` carrying the
    block index and seed, so a poisoned block is reproducible from the
    message alone instead of a bare pool traceback.
    """
    # Preallocate the chunk's syndrome array and fill block-by-block, so
    # peak detector memory really is the documented one-chunk bound (a
    # concatenate of per-block slices would transiently double it).
    reg = obs.active()
    t0 = perf_counter() if reg is not None else 0.0
    chunk_shots = sum(block_shots for _, block_shots, _ in blocks)
    dets = np.empty((chunk_shots, len(basis_ids)), dtype=bool)
    actual = np.empty(chunk_shots, dtype=np.int64)
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
        predictions = decoder.decode_batch(dets)
    except Exception as exc:
        first_index, _, first_seed = blocks[0]
        last_index = blocks[-1][0]
        raise BlockExecutionError(
            f"decoding chunk of blocks {first_index}..{last_index} "
            f"(first block {_seed_label(first_seed)}) failed: {exc!r}",
            first_index,
            _seed_label(first_seed),
        ) from exc
    stats = decoder.last_batch_stats or {}
    errors = int(np.count_nonzero(predictions != actual))
    if reg is not None:
        t2 = perf_counter()
        reg.counter("repro_engine_shots_total").inc(chunk_shots)
        reg.counter("repro_engine_blocks_total").inc(len(blocks))
        reg.counter("repro_engine_logical_errors_total").inc(errors)
        reg.histogram("repro_engine_sample_seconds").observe(t1 - t0)
        reg.histogram("repro_engine_decode_seconds").observe(t2 - t1)
        reg.histogram("repro_engine_chunk_seconds").observe(t2 - t0)
    return errors, stats


def decode_block_full(
    decoder: SyndromeDecoder, dets: np.ndarray
) -> tuple[np.ndarray, dict[str, int]]:
    """Tier-free fallback decode: every unique syndrome through ``decode``.

    The graceful-degradation path for durable blocks — when the tiered
    dispatcher raises (a tier assertion, or an injected decode fault),
    the block is re-decoded with nothing but the full decoder, which the
    tiers are provably equivalent to, so the error count is preserved.
    Stats keep the tier-sum == unique identity with everything heavy in
    ``full``.
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
    stats = {tier: 0 for tier in TIER_NAMES}
    stats["trivial"] = trivial
    stats["full"] = len(index) - trivial
    stats["unique"] = len(index)
    stats["shots"] = shots
    return predictions[np.asarray(inverse).ravel()], stats


def run_block(
    sampler,
    decoder: SyndromeDecoder,
    basis_ids: Sequence[int],
    obs_ids: Sequence[int],
    index: int,
    block_shots: int,
    seed: np.random.SeedSequence,
    *,
    fresh_decoder_state: bool = True,
    fault=None,
    unit: str = "",
) -> tuple[int, dict[str, int]]:
    """Sample, decode and score ONE shot block — the durable unit of work.

    With ``fresh_decoder_state`` (the default) the decoder's cross-batch
    LRU is cleared first, so the returned ``(errors, stats)`` pair is a
    pure function of ``(sampler, seed, index)`` — bit-identical no matter
    which worker runs the block, in what order, or after which others.
    That purity is what makes checkpointed results safe to resume from
    and byte-comparable across interrupted and uninterrupted runs.

    ``fault`` is an optional fault-injection hook (duck-typed; see
    ``repro.durable.faults.FaultPlan``): ``fault.check_decode(unit,
    index)`` may raise to simulate a decode-tier failure, which — like a
    real tier assertion — degrades gracefully to the tier-free
    :func:`decode_block_full` fallback instead of failing the block.
    """
    reg = obs.active()
    t0 = perf_counter() if reg is not None else 0.0
    if fresh_decoder_state:
        decoder.reset_batch_state()
    try:
        data = sampler.sample(block_shots, seed)
        dets = data.detectors[:, basis_ids]
        actual = _pack_observables(data.observables, obs_ids)
    except Exception as exc:
        raise BlockExecutionError(
            f"sampling block {index} ({_seed_label(seed)}) failed: {exc!r}",
            index,
            _seed_label(seed),
        ) from exc
    t1 = perf_counter() if reg is not None else 0.0
    fallback = False
    try:
        if fault is not None:
            fault.check_decode(unit, index)
        predictions = decoder.decode_batch(dets)
        stats = dict(decoder.last_batch_stats or {})
    except Exception:
        try:
            predictions, stats = decode_block_full(decoder, dets)
            fallback = True
        except Exception as exc:
            raise BlockExecutionError(
                f"decoding block {index} ({_seed_label(seed)}) failed even "
                f"in the tier-free fallback: {exc!r}",
                index,
                _seed_label(seed),
            ) from exc
    if fallback:
        stats["fallback"] = 1
    errors = int(np.count_nonzero(predictions != actual))
    if reg is not None:
        t2 = perf_counter()
        reg.counter("repro_engine_shots_total").inc(block_shots)
        reg.counter("repro_engine_blocks_total").inc(1)
        reg.counter("repro_engine_logical_errors_total").inc(errors)
        reg.histogram("repro_engine_sample_seconds").observe(t1 - t0)
        reg.histogram("repro_engine_decode_seconds").observe(t2 - t1)
        reg.histogram("repro_engine_chunk_seconds").observe(t2 - t0)
    return errors, stats


# Per-worker state installed by the pool initializer, so the sampler
# (compiled circuit) and decoder are pickled once per worker, not per chunk.
_WORKER: dict = {}


def _init_worker(sampler, decoder, basis_ids, obs_ids) -> None:
    _WORKER["args"] = (sampler, decoder, basis_ids, obs_ids)


def _run_chunk_in_worker(blocks) -> tuple[int, dict[str, int], dict | None]:
    """Pool work unit: chunk result plus the worker's metrics delta.

    When observability is on in the worker (inherited by fork, or re-armed
    via ``REPRO_OBS=1`` under spawn), the chunk's instrument increments are
    shipped back as a snapshot delta for the parent to merge — metrics
    survive process fan-out without touching the ``(errors, stats)`` pair
    that campaign results are built from.
    """
    reg = obs.active()
    if reg is None:
        errors, stats = _run_chunk(*_WORKER["args"], blocks)
        return errors, stats, None
    before = reg.snapshot()
    errors, stats = _run_chunk(*_WORKER["args"], blocks)
    return errors, stats, obs.snapshot_delta(reg.snapshot(), before)


def accumulate_decode_stats(into: dict, stats: dict[str, int]) -> None:
    """Sum one decode-tier stats dict into an accumulator in place.

    The shared convention for tier accounting across chunks, workers,
    circuits of a campaign, and points of a sweep: plain per-key sums,
    so ``sum(into[t] for t in TIER_NAMES) == into["unique"]`` holds for
    any aggregate whose parts each satisfy it.  Delegates to
    ``repro.obs.merge_counts`` — the one merge implementation shared with
    metric snapshot merging.
    """
    obs.merge_counts(into, stats)


_accumulate_stats = accumulate_decode_stats


def count_logical_errors(
    circuit: Circuit,
    decoder: SyndromeDecoder,
    basis_ids: Sequence[int],
    obs_ids: Sequence[int],
    shots: int,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    backend: str = "packed",
    decode_stats: dict | None = None,
    sampler=None,
) -> int:
    """Count shots whose decoded prediction disagrees with the truth.

    Parameters
    ----------
    workers:
        Processes to shard chunks across; ``1`` runs inline.
    chunk_size:
        Shots materialized per chunk, rounded down to whole blocks
        (minimum one block).  Bounds peak memory at any total shot count.
    backend:
        ``"packed"`` (compiled uint64 bit-plane sampler, default) or
        ``"reference"`` (per-instruction bool-array simulator).  Each is
        deterministic and worker/chunk-invariant, but they define
        different canonical random streams, so counts agree across
        backends statistically rather than bitwise.
    decode_stats:
        Optional dict that accumulates per-chunk decode-tier occupancy
        (``trivial``/``weight1``/``weight2``/``cached``/``batched``/
        ``full`` plus ``unique``, ``shots`` and the raw LRU counter
        deltas ``lru_hits``/``lru_misses``) summed over every chunk and
        worker.
        Per ``decode_batch``'s contract the tier counts of each chunk sum
        to its unique-syndrome count; the engine-scaling bench asserts
        the aggregate identity.  Note that ``unique``/``cached`` are
        per-chunk notions: a syndrome occurring in two chunks counts as
        unique in both, and as ``cached`` in the second only via the
        decoder's cross-batch LRU (per worker process).
    sampler:
        Optional pre-built sampler (the object :func:`make_sampler`
        returns for this ``circuit``/``backend``), so multi-circuit
        campaigns compile each distinct circuit shape once and reuse it
        across calls.  When omitted, the circuit is compiled here.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if len(obs_ids) > 63:
        raise ValueError(
            f"cannot pack {len(obs_ids)} observables into an int64 mask "
            "(at most 63 observables per basis are supported)"
        )
    if sampler is None:
        sampler = make_sampler(circuit, backend)
    blocks = block_seeds(shots, seed)
    per_chunk = max(1, chunk_size // SHOT_BLOCK)
    chunks = [blocks[i : i + per_chunk] for i in range(0, len(blocks), per_chunk)]

    errors = 0
    if workers == 1 or len(chunks) == 1:
        with obs.span("engine.count", shots=shots, workers=1, backend=backend):
            for chunk in chunks:
                chunk_errors, stats = _run_chunk(
                    sampler, decoder, basis_ids, obs_ids, chunk
                )
                errors += chunk_errors
                if decode_stats is not None:
                    _accumulate_stats(decode_stats, stats)
        return errors

    reg = obs.active()
    ctx = multiprocessing.get_context()
    with obs.span("engine.count", shots=shots, workers=workers, backend=backend):
        with ctx.Pool(
            processes=min(workers, len(chunks)),
            initializer=_init_worker,
            initargs=(sampler, decoder, basis_ids, obs_ids),
        ) as pool:
            # Summation is order-independent, so drain shards as they finish.
            for chunk_errors, stats, delta in pool.imap_unordered(
                _run_chunk_in_worker, chunks
            ):
                errors += chunk_errors
                if decode_stats is not None:
                    _accumulate_stats(decode_stats, stats)
                if reg is not None and delta is not None:
                    reg.merge_snapshot(delta)
    return errors
