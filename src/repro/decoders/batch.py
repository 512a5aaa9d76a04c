"""Tiered batched syndrome decoding shared by every decoder.

The Monte-Carlo engine hands decoders whole arrays of sampled syndromes at
once.  :meth:`SyndromeDecoder.decode_batch` deduplicates rows first —
one stable sort of the bit-packed rows as 64-bit words
(:func:`_unique_rows`: row-wise ``np.unique``'s result without its
per-byte row compares) — counts the all-zero unique syndromes as the
``trivial`` tier (they decode to 0 without touching the decoder), and
hands every other unique syndrome to one ladder hook,
:meth:`SyndromeDecoder._decode_uniques`.  Each decoder's hook is its own
ladder and names the tiers that served each row:

``batched``
    Union-find decodes every non-trivial unique in one call to the
    lockstep kernel of ``decoders/batched_uf.py``, bit-identical to its
    per-shot ``decode`` by contract.
``weight1`` / ``weight2`` / ``full``
    MWPM serves one- and two-event syndromes with analytic rules that
    are exactly the blossom outcome for those weights (see
    ``decoders/mwpm.py``), and runs blossom once per heavier unique.
``full``
    The base hook, which any other decoder inherits, runs the decoder's
    ``decode`` once per unique syndrome.

:meth:`SyndromeDecoder.decode_batch_full` runs the same dedup and
accounting with the base hook in place of the decoder's: the tier-free
fallback that ``run_block`` degrades to when ``decode_batch`` raises.

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

from functools import partial
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
    ``decode_batch`` — dedup, the ``trivial`` tier and the accounting — is
    derived.  A decoder with a faster exact way to decode many unique
    syndromes at once overrides the one ladder hook,
    :meth:`_decode_uniques`.
    """

    def __init__(self, graph):
        self.graph = graph
        #: tier occupancy of the most recent decode_batch call
        self.last_batch_stats: dict[str, int] | None = None

    def reset_batch_state(self) -> None:
        """Forget the last call's tier occupancy.

        Kept for ``perfbench/workloads.py``, which calls it before every
        campaign; decoding itself keeps no state between calls.
        """
        self.last_batch_stats = None

    def decode(self, events: list[int]) -> int:
        """Predicted observable-flip mask for one shot's detection events."""
        raise NotImplementedError

    def _decode_uniques(self, dets: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
        """Predictions for the non-trivial unique syndromes ``dets``.

        The ladder hook: returns an int64 prediction per row and the
        number of rows each tier served, which must add up to
        ``len(dets)``.  This base version runs :meth:`decode` once per
        row, the ``full`` tier.  An override must give exactly
        ``decode``'s predictions.
        """
        predictions = np.zeros(len(dets), dtype=np.int64)
        # One np.nonzero over the block replaces a per-row flatnonzero.
        row_idx, col_idx = np.nonzero(dets)
        bounds = np.searchsorted(row_idx, np.arange(len(dets) + 1))
        for i in range(len(dets)):
            prediction = self.decode(col_idx[bounds[i] : bounds[i + 1]].tolist())
            if not -(2**63) <= prediction < 2**63:
                raise ValueError(
                    f"decoder returned observable mask {prediction:#x}, which "
                    "does not fit the int64 prediction array (at most 63 "
                    "observables per basis are supported)"
                )
            predictions[i] = prediction
        return predictions, {"full": len(dets)}

    def decode_batch(self, dets: np.ndarray) -> np.ndarray:
        """Decode a ``(shots, num_detectors)`` bool array of syndromes.

        Returns an ``(shots,)`` int64 array of predicted observable masks.
        Each unique syndrome of the batch is resolved once, and duplicate
        rows share its prediction.  Nothing persists across calls, so a
        syndrome seen in an earlier batch is decoded again.
        """
        return self._decode_deduped(dets, self._decode_uniques)[0]

    def decode_batch_full(self, dets: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
        """Tier-free decode: every non-trivial unique through :meth:`decode`.

        The graceful-degradation path of ``run_block``: when
        ``decode_batch`` raises (a tier assertion, or an injected decode
        fault), the batch is decoded again with nothing but the per-unique
        ``decode`` loop, which every hook is exactly equivalent to, so the
        error count is preserved.  Returns the predictions and the call's
        stats: the tiers, with every non-trivial unique in ``full``, plus
        ``unique`` and ``shots``.
        """
        return self._decode_deduped(dets, partial(SyndromeDecoder._decode_uniques, self))

    def _decode_deduped(self, dets, hook) -> tuple[np.ndarray, dict[str, int]]:
        """Dedup ``dets``, count the trivial uniques, pass the rest to
        ``hook`` and record the call's stats once."""
        t0 = perf_counter()
        dets = np.asarray(dets, dtype=bool)
        if dets.ndim != 2:
            raise ValueError(f"expected a 2-D (shots, detectors) array, got {dets.shape}")
        # Bit-pack rows: the dedup sorts 64 detectors per word.
        index, inverse = _unique_rows(np.packbits(dets, axis=1))
        unique_dets = dets[index]
        predictions = np.zeros(len(index), dtype=np.int64)
        tiers = dict.fromkeys(TIER_NAMES, 0)
        # An int64 sum, not a bool ``any``: the bool variant read higher
        # peak RSS on the program workload (EXPERIMENTS.md, "The dedup").
        weights = unique_dets.sum(axis=1, dtype=np.int64)
        nontrivial = np.flatnonzero(weights)
        tiers["trivial"] = len(index) - nontrivial.size
        if nontrivial.size:
            predictions[nontrivial], served = hook(unique_dets[nontrivial])
            tiers.update(served)
        stats = {**tiers, "unique": len(index), "shots": dets.shape[0]}
        self._record_stats(stats, t0)
        return predictions[inverse], stats

    def _record_stats(self, stats: dict[str, int], t0: float) -> None:
        # Always 0: ``perfbench/layers.py`` reads both keys on every call.
        self.last_batch_stats = {**stats, "lru_hits": 0, "lru_misses": 0}
        reg = obs.active()
        if reg is not None:
            tier_counter = reg.counter("repro_decode_tier_shots_total")
            for tier in TIER_NAMES:
                if stats[tier]:
                    tier_counter.inc(stats[tier], tier)
            reg.counter("repro_decode_shots_total").inc(stats["shots"])
            reg.counter("repro_decode_unique_total").inc(stats["unique"])
            reg.counter("repro_decode_batches_total").inc()
            reg.histogram("repro_decode_batch_seconds").observe(perf_counter() - t0)
