"""Tiered batched syndrome decoding shared by every decoder.

The Monte-Carlo engine hands decoders whole arrays of sampled syndromes at
once.  :meth:`SyndromeDecoder.decode_batch` deduplicates rows first —
one stable sort of the bit-packed rows as 64-bit words
(:func:`_unique_rows`: row-wise ``np.unique``'s result without its
per-byte row compares) — and then routes every *unique* syndrome
through a tier ladder, cheapest first:

``trivial``
    All-zero syndromes decode to 0 without touching the decoder.
``weight1`` / ``weight2``
    One- and two-event syndromes go through an analytic rule when the
    decoder provides one.  MWPM does: one event matches its nearest
    boundary (the boundary-observable mask of its Dijkstra pass), and a
    pair matches through the bulk iff the bulk path is strictly cheaper
    than both boundary paths — exactly the blossom outcome for those
    weights.  Decoders without a provably-exact rule return ``None``
    and those syndromes join the heavy ones below; union-find has
    neither rule.
``cached``
    A bounded cross-batch LRU of decoder predictions
    (:class:`~repro.decoders.cache.PackedLRU`), keyed by the packed
    syndrome bytes, so a syndrome repeated across batches is not
    re-decoded while it stays cached.  The capacity bound keeps worker
    memory flat at any total shot count.
``batched``
    Decoders that provide a vectorized whole-batch kernel
    (:meth:`SyndromeDecoder._decode_heavy_batch`; union-find routes here
    through the lockstep kernel of ``decoders/batched_uf.py``) decode
    all remaining uniques in one call.  The kernel is bit-identical to
    the per-shot decoder by contract, so results still land in the LRU
    and the ``cached`` tier serves them on repeats.
``full``
    Everything else runs the decoder's ``decode`` once per unique
    syndrome and lands in the LRU.

So union-find decodes dedup → LRU → kernel, and MWPM dedup → analytic
tiers → LRU → per-unique ``decode``.  When every unique syndrome in a
batch is heavy — the regime at threshold — the dispatcher skips the
weight-tier setup entirely (no pair extraction), so a decoder with no
batched kernel pays only dedup + LRU over the plain decode loop.

Tier occupancy has one producer, :meth:`SyndromeDecoder._record_stats`,
and two sinks: the per-call record ``last_batch_stats`` (with the call's
LRU ``lru_hits``/``lru_misses`` deltas), which ``run_block`` returns
and checks, and the ``repro_decode_*`` registry counters, the only
total across calls.  The tiers always sum to the number of unique
syndromes; ``run_block`` raises when they do not (silent misrouting).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import obs
from repro.decoders.cache import PackedLRU

__all__ = ["SyndromeDecoder", "TIER_NAMES"]

#: Tier keys, in dispatch order.  ``sum(stats[t] for t in TIER_NAMES)``
#: always equals ``stats["unique"]``.
TIER_NAMES = ("trivial", "weight1", "weight2", "cached", "batched", "full")

#: Default bound on cached decoder predictions (entries, not bytes;
#: a d=7 entry is ~60 bytes of key plus an int, so the default tops out
#: around a few MB per worker).
DEFAULT_LRU_CAPACITY = 65536


def _unique_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dedup a ``(rows, bytes)`` uint8 array by one sort over 64-bit words.

    Returns exactly the ``index`` (first occurrence of each unique row)
    and ``inverse`` that row-wise ``np.unique`` returns with
    ``return_index`` and ``return_inverse``, so unique order is
    unchanged.  Rows are zero-padded to whole words and read big-endian,
    which makes numeric word order ``np.unique``'s byte order; the sort
    is stable, as ``np.unique``'s mergesort is.  Zero-width rows are one
    unique row.
    """
    rows, width = packed.shape
    buf = np.zeros((rows, max(1, -(-width // 8)) * 8), np.uint8)
    buf[:, :width] = packed
    # One native-order key per word, last word first as lexsort wants.
    keys = np.ascontiguousarray(buf.view(">u8").T[::-1], dtype=np.uint64)
    order = np.lexsort(keys) if len(keys) > 1 else keys[0].argsort(kind="stable")
    ordered = keys[:, order]
    start = np.ones(rows, dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=start[1:])
    inverse = np.empty(rows, dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    return order[start], inverse


class SyndromeDecoder:
    """Base class giving any single-shot decoder a tiered batched entry.

    Subclasses implement :meth:`decode` (one syndrome, given as a list of
    fired detector indices) and call ``super().__init__(graph)``;
    ``decode_batch`` — dedup, tier dispatch, LRU — is derived.  Optional
    overrides: :meth:`_decode_weight1_batch` and
    :meth:`_decode_weight2_batch` (vectorized exact one- and two-event
    predictions, or ``None`` to fall through) and
    :meth:`_decode_heavy_batch` (a whole-batch kernel).
    """

    def __init__(self, graph):
        self.graph = graph
        self._lru = PackedLRU(DEFAULT_LRU_CAPACITY)
        #: tier occupancy of the most recent decode_batch call
        self.last_batch_stats: dict[str, int] | None = None
        self._batch_t0 = 0.0  # decode_batch entry time when obs is enabled

    def __getstate__(self) -> dict:
        """Pickle without LRU contents: a worker starts from an empty one.

        Durable workers reset the LRU before every block anyway, and a
        warm one would make every shipped decoder as large as its cache.
        """
        state = self.__dict__.copy()
        state["_lru"] = PackedLRU(self._lru.capacity)
        return state

    def reset_batch_state(self) -> None:
        """Drop cross-batch decode state (the LRU and last-batch stats).

        After this call the next ``decode_batch``'s result *and* its tier
        occupancy are pure functions of that batch's syndromes: nothing
        can land in the ``cached`` tier, so which uniques are cached
        and which are decoded no longer depends on which batches ran
        earlier in this process.
        Durable block execution calls this before every block to make
        per-block checkpoints bit-identical across workers and resumes.
        """
        self._lru.clear()
        self.last_batch_stats = None

    # ------------------------------------------------------------------
    # Single-shot interface
    # ------------------------------------------------------------------
    def decode(self, events: list[int]) -> int:
        """Predicted observable-flip mask for one shot's detection events."""
        raise NotImplementedError

    def _checked_decode(self, events: list[int]) -> int:
        prediction = self.decode(events)
        if not -(2**63) <= prediction < 2**63:
            raise ValueError(
                f"decoder returned observable mask {prediction:#x}, which "
                "does not fit the int64 prediction array (at most 63 "
                "observables per basis are supported)"
            )
        return prediction

    # ------------------------------------------------------------------
    # Fast-path hooks
    # ------------------------------------------------------------------
    def _decode_weight1_batch(self, cols: np.ndarray) -> np.ndarray | None:
        """Vectorized predictions for single-event syndromes firing ``cols``.

        Return ``None`` (the default) when no analytic rule reproduces
        this decoder exactly; those syndromes then join the heavy ones.
        """
        return None

    def _decode_weight2_batch(self, u: np.ndarray, v: np.ndarray) -> np.ndarray | None:
        """Vectorized predictions for two-event syndromes ``{u[i], v[i]}``.

        Return ``None`` (the default) when no analytic rule reproduces
        this decoder exactly; those syndromes then join the heavy ones.
        """
        return None

    def _decode_heavy_batch(self, dets: np.ndarray) -> np.ndarray | None:
        """Whole-batch predictions for the heavy unique syndromes ``dets``.

        "Heavy" means every non-trivial unique that no analytic tier or
        LRU entry served.  Decoders with a vectorized kernel that is
        *bit-identical* to their per-shot ``decode`` override this
        (union-find routes through the lockstep kernel); its results
        populate the ``batched`` tier and the LRU.  Return ``None`` (the
        default) to fall back to the per-unique ``full`` decode loop.
        """
        return None

    # ------------------------------------------------------------------
    # Batched interface
    # ------------------------------------------------------------------
    def decode_batch(self, dets: np.ndarray) -> np.ndarray:
        """Decode a ``(shots, num_detectors)`` bool array of syndromes.

        Returns an ``(shots,)`` int64 array of predicted observable masks.
        Each unique syndrome of the batch is resolved once, and duplicate
        rows share its prediction.  Across calls only the bounded LRU
        persists (until :meth:`reset_batch_state`), so a syndrome seen in
        an earlier batch is decoded again once it has been evicted.
        """
        dets = np.asarray(dets, dtype=bool)
        if dets.ndim != 2:
            raise ValueError(f"expected a 2-D (shots, detectors) array, got {dets.shape}")
        self._batch_t0 = perf_counter() if obs.enabled() else 0.0
        shots = dets.shape[0]
        if shots == 0:
            self._record_stats(0, {t: 0 for t in TIER_NAMES})
            return np.zeros(0, dtype=np.int64)
        # Bit-pack rows: the dedup sorts 64 detectors per word, and the
        # packed bytes are the LRU keys.
        packed = np.packbits(dets, axis=1) if dets.shape[1] else np.zeros((shots, 0), np.uint8)
        index, inverse = _unique_rows(packed)
        unique_dets = dets[index]
        weights = unique_dets.sum(axis=1, dtype=np.int64)
        predictions = np.zeros(len(index), dtype=np.int64)
        tiers = {t: 0 for t in TIER_NAMES}
        hits_before = self._lru.hits
        misses_before = self._lru.misses

        if int(weights.min()) > 2:
            # All-heavy fast path (the regime at threshold): no weight
            # tier can fire, so skip their setup entirely.
            heavy = np.arange(len(index))
        else:
            tiers["trivial"] = int(np.count_nonzero(weights == 0))
            heavy_parts = [np.flatnonzero(weights > 2)]
            for weight, tier, rule in (
                (1, "weight1", self._decode_weight1_batch),
                (2, "weight2", self._decode_weight2_batch),
            ):
                rows = np.flatnonzero(weights == weight)
                if not rows.size:
                    continue
                # np.nonzero is row-major, so each row contributes its
                # fired columns in ascending order.
                cols = np.nonzero(unique_dets[rows])[1].reshape(-1, weight)
                analytic = rule(*cols.T)
                if analytic is None:
                    heavy_parts.append(rows)
                else:
                    predictions[rows] = analytic
                    tiers[tier] = int(rows.size)
            heavy = np.sort(np.concatenate(heavy_parts))

        if heavy.size:
            keys = self._lru.keys_for(packed[index[heavy]])
            hit, cached_values = self._lru.get_many(keys)
            hits = int(np.count_nonzero(hit))
            if hits:
                predictions[heavy[hit]] = cached_values[hit]
                tiers["cached"] = hits
            if hits < heavy.size:
                miss_pos = np.flatnonzero(~hit)
                missing = heavy[miss_pos]
                miss_dets = unique_dets[missing]
                decoded = self._decode_heavy_batch(miss_dets)
                if decoded is not None:
                    decoded = np.asarray(decoded, dtype=np.int64)
                    tiers["batched"] = int(missing.size)
                else:
                    # Per-unique full decode; one np.nonzero over the
                    # block replaces a per-row flatnonzero.
                    decoded = np.zeros(missing.size, dtype=np.int64)
                    row_idx, col_idx = np.nonzero(miss_dets)
                    bounds = np.searchsorted(
                        row_idx, np.arange(missing.size + 1)
                    )
                    for i in range(missing.size):
                        decoded[i] = self._checked_decode(
                            col_idx[bounds[i] : bounds[i + 1]].tolist()
                        )
                    tiers["full"] = int(missing.size)
                predictions[missing] = decoded
                self._lru.put_many([keys[i] for i in miss_pos], decoded)

        self._record_stats(
            shots,
            tiers,
            unique=len(index),
            lru_hits=self._lru.hits - hits_before,
            lru_misses=self._lru.misses - misses_before,
        )
        return predictions[inverse]

    def _record_stats(
        self,
        shots: int,
        tiers: dict[str, int],
        unique: int = 0,
        lru_hits: int = 0,
        lru_misses: int = 0,
    ) -> None:
        stats = dict(tiers)
        stats["unique"] = unique
        stats["shots"] = shots
        stats["lru_hits"] = lru_hits
        stats["lru_misses"] = lru_misses
        self.last_batch_stats = stats
        reg = obs.active()
        if reg is not None:
            tier_counter = reg.counter("repro_decode_tier_shots_total")
            for tier, count in tiers.items():
                if count:
                    tier_counter.inc(count, tier)
            reg.counter("repro_decode_shots_total").inc(shots)
            reg.counter("repro_decode_unique_total").inc(unique)
            reg.counter("repro_decode_batches_total").inc()
            if lru_hits:
                reg.counter("repro_decode_lru_hits_total").inc(lru_hits)
            if lru_misses:
                reg.counter("repro_decode_lru_misses_total").inc(lru_misses)
            if self._batch_t0:
                reg.histogram("repro_decode_batch_seconds").observe(
                    perf_counter() - self._batch_t0
                )
                self._batch_t0 = 0.0
