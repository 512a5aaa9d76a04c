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
``batched``
    Decoders that provide a vectorized whole-batch kernel
    (:meth:`SyndromeDecoder._decode_heavy_batch`; union-find routes here
    through the lockstep kernel of ``decoders/batched_uf.py``) decode
    all remaining uniques in one call.  The kernel is bit-identical to
    the per-shot decoder by contract.
``full``
    Everything else runs the decoder's ``decode`` once per unique
    syndrome.

So union-find decodes dedup → kernel, and MWPM dedup → analytic tiers
→ per-unique ``decode``.  When every unique syndrome in a batch is
heavy — the regime at threshold — the dispatcher skips the weight-tier
setup entirely (no pair extraction), so a decoder with no batched
kernel pays only the dedup over the plain decode loop.

Decoders keep no state between ``decode_batch`` calls: each call's
predictions and tier occupancy are a function of its own batch alone,
whichever batches ran before it in the process.  There is no
cross-batch cache of predictions: on union-find one cost more dispatch
time than the kernel decodes it saved (EXPERIMENTS.md, "No state
between calls", which also gives what MWPM pays without it).

Tier occupancy has one producer, :meth:`SyndromeDecoder._record_stats`,
and two sinks: the per-call record ``last_batch_stats``, which
``run_block`` returns and checks, and the ``repro_decode_*`` registry
counters, the only total across calls.  The tiers always sum to the
number of unique syndromes; ``run_block`` raises when they do not
(silent misrouting).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import obs

__all__ = ["SyndromeDecoder", "TIER_NAMES"]

#: Tier keys, in dispatch order.  ``sum(stats[t] for t in TIER_NAMES)``
#: always equals ``stats["unique"]``.
TIER_NAMES = ("trivial", "weight1", "weight2", "batched", "full")


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
    ``decode_batch`` — dedup and tier dispatch — is derived.  Optional
    overrides: :meth:`_decode_weight1_batch` and
    :meth:`_decode_weight2_batch` (vectorized exact one- and two-event
    predictions, or ``None`` to fall through) and
    :meth:`_decode_heavy_batch` (a whole-batch kernel).
    """

    def __init__(self, graph):
        self.graph = graph
        #: tier occupancy of the most recent decode_batch call
        self.last_batch_stats: dict[str, int] | None = None
        self._batch_t0 = 0.0  # decode_batch entry time when obs is enabled

    def reset_batch_state(self) -> None:
        """Forget the last call's tier occupancy.

        Kept for ``perfbench/workloads.py``, which calls it before every
        campaign; decoding itself keeps no state between calls.
        """
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

        "Heavy" means every non-trivial unique that no analytic tier
        served.  Decoders with a vectorized kernel that is
        *bit-identical* to their per-shot ``decode`` override this
        (union-find routes through the lockstep kernel); its results
        populate the ``batched`` tier.  Return ``None`` (the default) to
        fall back to the per-unique ``full`` decode loop.
        """
        return None

    # ------------------------------------------------------------------
    # Batched interface
    # ------------------------------------------------------------------
    def decode_batch(self, dets: np.ndarray) -> np.ndarray:
        """Decode a ``(shots, num_detectors)`` bool array of syndromes.

        Returns an ``(shots,)`` int64 array of predicted observable masks.
        Each unique syndrome of the batch is resolved once, and duplicate
        rows share its prediction.  Nothing persists across calls, so a
        syndrome seen in an earlier batch is decoded again.
        """
        dets = np.asarray(dets, dtype=bool)
        if dets.ndim != 2:
            raise ValueError(f"expected a 2-D (shots, detectors) array, got {dets.shape}")
        self._batch_t0 = perf_counter() if obs.enabled() else 0.0
        shots = dets.shape[0]
        if shots == 0:
            self._record_stats(0, {t: 0 for t in TIER_NAMES})
            return np.zeros(0, dtype=np.int64)
        # Bit-pack rows: the dedup sorts 64 detectors per word.
        packed = np.packbits(dets, axis=1) if dets.shape[1] else np.zeros((shots, 0), np.uint8)
        index, inverse = _unique_rows(packed)
        unique_dets = dets[index]
        weights = unique_dets.sum(axis=1, dtype=np.int64)
        predictions = np.zeros(len(index), dtype=np.int64)
        tiers = {t: 0 for t in TIER_NAMES}

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
            heavy_dets = unique_dets[heavy]
            decoded = self._decode_heavy_batch(heavy_dets)
            if decoded is not None:
                decoded = np.asarray(decoded, dtype=np.int64)
                tiers["batched"] = int(heavy.size)
            else:
                # Per-unique full decode; one np.nonzero over the block
                # replaces a per-row flatnonzero.
                decoded = np.zeros(heavy.size, dtype=np.int64)
                row_idx, col_idx = np.nonzero(heavy_dets)
                bounds = np.searchsorted(row_idx, np.arange(heavy.size + 1))
                for i in range(heavy.size):
                    decoded[i] = self._checked_decode(
                        col_idx[bounds[i] : bounds[i + 1]].tolist()
                    )
                tiers["full"] = int(heavy.size)
            predictions[heavy] = decoded

        self._record_stats(shots, tiers, unique=len(index))
        return predictions[inverse]

    def _record_stats(self, shots: int, tiers: dict[str, int], unique: int = 0) -> None:
        stats = dict(tiers)
        stats["unique"] = unique
        stats["shots"] = shots
        # Always 0: ``perfbench/layers.py`` reads both keys on every call.
        stats["lru_hits"] = stats["lru_misses"] = 0
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
            if self._batch_t0:
                reg.histogram("repro_decode_batch_seconds").observe(
                    perf_counter() - self._batch_t0
                )
                self._batch_t0 = 0.0
