"""Engine scaling: shots/sec by distance × backend × workers × decoder.

Three layers are measured and recorded in ``BENCH_engine.json`` — a file
tracked in git, refreshed from a full-shots local run and committed with
perf-affecting PRs so the trajectory is readable across history (CI smoke
regenerations at reduced shots live only in the runner workspace, and are
uploaded as a workflow artifact):

- **sampling** — the frame-simulation pipeline alone (circuit →
  detector/observable data, block-by-block exactly as the engine consumes
  it).  This is where the compiled ``packed`` backend (fused noise
  draws, precomputed symptom table) must beat the seed
  per-instruction bool-array simulator by ≥ ``REPRO_BENCH_MIN_SPEEDUP``
  (default 5x; CI smoke runs with 2x as the regression gate).
- **decode_only** — the tiered ``decode_batch`` path (union-find: dedup
  → batched lockstep kernel; MWPM: dedup → weight-1/weight-2 analytic
  rules → per-unique full decode) against a dedup +
  per-unique ``decode()`` loop
  baseline.  For union-find the baseline runs the legacy dict
  implementation PR 2 shipped (a true tiered-vs-PR2 number) and the row
  also carries a batched-vs-flat comparison (the same dedup + loop over
  the *current* flat-array decoder — the kernel's own contribution,
  isolated from the PR 5 flat rewrite); for MWPM the baseline
  necessarily shares this PR's vectorized ``decode``, so that row
  isolates the tier-dispatch cost and is gated at the largest distance
  to stay within timing noise of 1.0x (see
  ``_min_mwpm_decode_speedup``).  Tier hit rates are recorded per decoder ×
  distance, the accounting identity ``sum(tiers) == unique`` is
  asserted on every chunk aggregate (a silent misroute would break it),
  and the tiered union-find path must beat the PR 2 baseline by
  ≥ ``REPRO_BENCH_MIN_DECODE_SPEEDUP`` (default 6x).  Decode-only rates
  come from the median-ratio rep of ``DECODE_REPEATS`` paired runs with
  fresh decoder state per rep.
- **end_to_end** — the full engine including decoding, per backend and
  worker count at p=5e-3 (essentially at threshold, where nearly every
  syndrome is unique and heavy — worst case for the fast path) plus a
  below-threshold point at p=1e-3 where dedup carries more of the
  load.  These runs arm the ``repro.obs`` registry, the only total of
  decode-tier occupancy across calls (fleet workers ship their deltas
  back), so their rates include its overhead (gated at 3% by
  ``test_obs_overhead``).

Worker count and backend must never change each backend's measured counts
(each backend has its own canonical stream; across backends the counts
agree statistically).
"""

import os
import time
from pathlib import Path

import numpy as np

from conftest import decode_tiers, merge_bench_json, shots
from repro import obs
from repro.decoders import (
    TIER_NAMES,
    LegacyUnionFindDecoder,
    MatchingGraph,
    MWPMDecoder,
    UnionFindDecoder,
)
from repro.dem import DetectorErrorModel
from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.report import ascii_table
from repro.sim import run_memory_experiment, shot_blocks
from repro.sim.engine import make_sampler
from repro.surface_code import baseline_memory_circuit

DISTANCES = (5, 7)
P = 5e-3
P_BELOW = 1e-3
WORKER_COUNTS = (1, 2, 4)
BACKENDS = ("reference", "packed")
DECODE_CHUNK = 1024
# Decode-only measurement repeats.  Each rep times tiered, baseline and
# (for union-find) flat back to back with fresh decoder state, and the
# median-ratio rep is recorded: pairing cancels machine drift between
# the two timed regions, and the median sheds one-off scheduler hiccups
# that would otherwise flake the gated ratios.  The two gated sides swap
# order every rep (``_paired``), so neither always takes the first slot.
DECODE_REPEATS = 7
# Shot floors for the two gates near 1.0x, so that each side of a rep
# times at least about half a second even at a smoke shot budget: MWPM
# decodes 256 d=7 shots in about 1 s on a 2-core host, and the d=7
# engine runs 12,288 shots in about 0.5 s.
MWPM_MIN_SHOTS = 256
OBS_MIN_SHOTS = 12288

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
#: Sample span trace from the instrumented overhead rep (CI uploads it as
#: a workflow artifact; gitignored locally).
OBS_TRACE_OUT = BENCH_JSON.parent / "BENCH_obs_trace.jsonl"


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", 5.0))


def _max_obs_overhead() -> float:
    # Instrumented / noop wall-clock ratio the obs layer must stay under
    # on the d=7 hot path.  Local full-shots runs gate at 3%; CI smoke
    # sets 1.06 — shorter timed regions mean more scheduler noise, and
    # the local gate is the one that guards the committed trajectory.
    return float(os.environ.get("REPRO_BENCH_MAX_OBS_OVERHEAD", 1.03))


def _min_decode_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_DECODE_SPEEDUP", 6.0))


def _min_mwpm_decode_speedup() -> float:
    # At d=7 p=5e-3 nearly every unique syndrome is heavy, so the tiered
    # MWPM dispatch runs the same blossom loop as the raw dedup+loop,
    # after a few vectorized weight passes; the true ratio is about 1.0
    # and any measured deviation is timing noise (observed ±3% on
    # best-of-3 multi-second regions).  The default gate is 1.0 minus
    # that noise floor: a structural dispatch cost shows up as a
    # systematic shortfall below it, not as scatter around 1.0.
    return float(os.environ.get("REPRO_BENCH_MIN_MWPM_DECODE_SPEEDUP", 0.95))


def _paired(rep: int, first, second) -> tuple:
    """``(first(), second())``, run in swapped order on odd reps."""
    if rep % 2:
        b = second()
        return first(), b
    a = first()
    return a, second()


def _sampling_rate(circuit, backend: str, n: int) -> float:
    """Shots/sec of the sampling pipeline, block-by-block like the engine."""
    sampler = make_sampler(circuit, backend)
    blocks = list(zip(shot_blocks(n), np.random.SeedSequence(0).spawn(len(shot_blocks(n)))))
    sampler.sample(min(n, 256), 0)  # warm-up outside the timed region
    start = time.perf_counter()
    for block_shots, seed in blocks:
        sampler.sample(block_shots, seed)
    return n / (time.perf_counter() - start)


def _sample_syndromes(memory, n: int) -> np.ndarray:
    """The engine's detector rows for ``n`` shots (packed backend, seed 0)."""
    dem = DetectorErrorModel(memory.circuit)
    sampler = make_sampler(memory.circuit, "packed")
    basis_ids = dem.basis_detectors(memory.basis)
    rows = []
    for block_shots, seed in zip(
        shot_blocks(n), np.random.SeedSequence(0).spawn(len(shot_blocks(n)))
    ):
        rows.append(sampler.sample(block_shots, seed).detectors[:, basis_ids])
    return np.vstack(rows)


def _baseline_decode_rate(decoder, dets: np.ndarray) -> float:
    """The PR 2 decode path: np.unique dedup + per-unique decode() loop."""
    start = time.perf_counter()
    for lo in range(0, dets.shape[0], DECODE_CHUNK):
        chunk = dets[lo : lo + DECODE_CHUNK]
        packed = np.packbits(chunk, axis=1)
        _, index, inverse = np.unique(
            packed, axis=0, return_index=True, return_inverse=True
        )
        predictions = np.zeros(len(index), dtype=np.int64)
        for k, row_idx in enumerate(index):
            events = np.flatnonzero(chunk[row_idx])
            if events.size:
                predictions[k] = decoder.decode(events.tolist())
        predictions[np.asarray(inverse).ravel()]
    return dets.shape[0] / (time.perf_counter() - start)


def _tiered_decode_rate(decoder, dets: np.ndarray) -> tuple[float, dict]:
    """Tiered decode_batch over the same chunks; returns rate and tiers."""
    stats: dict = {}
    start = time.perf_counter()
    for lo in range(0, dets.shape[0], DECODE_CHUNK):
        decoder.decode_batch(dets[lo : lo + DECODE_CHUNK])
        obs.merge_counts(stats, decoder.last_batch_stats)
    elapsed = time.perf_counter() - start
    # Guard against silent misrouting: every unique syndrome must land in
    # exactly one tier.
    assert sum(stats[t] for t in TIER_NAMES) == stats["unique"], stats
    return dets.shape[0] / elapsed, stats


def _decode_only(n: int) -> list[dict]:
    results = []
    for d in DISTANCES:
        memory = baseline_memory_circuit(d, ErrorModel(hardware=BASELINE_HARDWARE, p=P))
        dem = DetectorErrorModel(memory.circuit)
        graph = MatchingGraph.from_dem(dem, memory.basis)
        # MWPM's blossom pass is O(m^3) per heavy syndrome; a quarter of
        # the shot budget keeps the full run in minutes, not hours.
        # Baselines: union-find measures against the PR 2 artifact (the
        # legacy dict implementation it shipped), so its speedup really is
        # tiered-vs-PR2.  MWPM's baseline necessarily shares this PR's
        # vectorized decode() (the PR 2 per-pair graph build no longer
        # exists), so its row isolates the tier-dispatch gain only.
        budgets = {
            "unionfind": (
                lambda: UnionFindDecoder(graph),
                lambda: LegacyUnionFindDecoder(graph),
                "PR 2 legacy dict decode loop",
                n,
            ),
            "mwpm": (
                lambda: MWPMDecoder(graph),
                lambda: MWPMDecoder(graph),
                "dedup + decode loop (same decode impl)",
                max(MWPM_MIN_SHOTS, n // 4),
            ),
        }
        dets_full = _sample_syndromes(memory, n)
        for name, (make_tiered, make_baseline, baseline_label, budget) in budgets.items():
            dets = dets_full[:budget]
            # Fresh decoder each rep, so every rep also builds its kernel.
            reps = []
            for rep in range(DECODE_REPEATS):
                (tiered_rate, stats), baseline_rate = _paired(
                    rep,
                    lambda: _tiered_decode_rate(make_tiered(), dets),
                    lambda: _baseline_decode_rate(make_baseline(), dets),
                )
                flat_rate = (
                    _baseline_decode_rate(UnionFindDecoder(graph), dets)
                    if name == "unionfind"
                    else None
                )
                reps.append(
                    (tiered_rate / baseline_rate, tiered_rate, stats,
                     baseline_rate, flat_rate)
                )
            reps.sort(key=lambda rep: rep[0])
            _, tiered_rate, stats, baseline_rate, flat_rate = reps[len(reps) // 2]
            row = {
                "distance": d,
                "decoder": name,
                "shots": int(dets.shape[0]),
                "unique_syndromes": stats["unique"],
                "tiered_shots_per_sec": tiered_rate,
                "tiered_unique_per_sec": tiered_rate * stats["unique"] / dets.shape[0],
                "baseline": baseline_label,
                "baseline_shots_per_sec": baseline_rate,
                "speedup_vs_baseline": tiered_rate / baseline_rate,
                "tiers": {t: stats[t] for t in TIER_NAMES},
            }
            if name == "unionfind":
                # Batched-vs-flat: the same dedup + per-unique loop over
                # the current flat-array decoder, so the ratio isolates
                # what the lockstep kernel buys over one-shot-at-a-time.
                row["flat_shots_per_sec"] = flat_rate
                row["speedup_batched_vs_flat"] = tiered_rate / flat_rate
            results.append(row)
    return results


def _timed_run_with_tiers(memory, **kwargs) -> tuple[object, float, dict]:
    """One armed ``run_memory_experiment``: result, seconds, tiers + unique."""
    obs.disable()
    reg = obs.enable()
    try:
        start = time.perf_counter()
        result = run_memory_experiment(memory, **kwargs)
        seconds = time.perf_counter() - start
    finally:
        obs.disable()
    return result, seconds, decode_tiers(reg.snapshot())


def test_engine_scaling(once, monkeypatch):
    n = shots(4096)
    # Exported so fleet workers arm their registries and ship tier deltas.
    monkeypatch.setenv("REPRO_OBS", "1")

    def measure():
        sampling, end_to_end, below = [], [], []
        for d in DISTANCES:
            memory = baseline_memory_circuit(
                d, ErrorModel(hardware=BASELINE_HARDWARE, p=P)
            )
            for backend in BACKENDS:
                sampling.append({
                    "distance": d,
                    "backend": backend,
                    "shots_per_sec": _sampling_rate(memory.circuit, backend, n),
                })
            counts = {}
            for backend in BACKENDS:
                for w in WORKER_COUNTS:
                    # workers > 1 fans each 1024-shot block out to the
                    # supervised fleet, so every worker count gets at least
                    # `w` blocks at the default n=4096.
                    result, seconds, tiers = _timed_run_with_tiers(
                        memory, shots=n, seed=0, workers=w, backend=backend,
                    )
                    end_to_end.append({
                        "distance": d,
                        "backend": backend,
                        "workers": w,
                        "shots_per_sec": n / seconds,
                        "logical_errors": result.logical_errors,
                        "decode_tiers": {t: tiers[t] for t in TIER_NAMES},
                        "unique_syndromes": tiers["unique"],
                    })
                    # Tier accounting must balance on the engine path too.
                    assert sum(
                        tiers[t] for t in TIER_NAMES
                    ) == tiers["unique"], tiers
                    counts[(backend, w)] = result.logical_errors
            # Worker count must never change a backend's counts; backends
            # have different canonical streams, so compare statistically.
            for backend in BACKENDS:
                per_worker = {counts[(backend, w)] for w in WORKER_COUNTS}
                assert len(per_worker) == 1, (backend, counts)
            # Different canonical streams: a statistical check, not a
            # bitwise one.  The slack covers ~3 sigma of two independent
            # binomial draws at smoke shot counts; a backend bug shows up
            # as a multiple, not a fraction.
            ref, packed = counts[("reference", 1)], counts[("packed", 1)]
            assert abs(ref - packed) <= max(12, 0.75 * ref), counts

            below_memory = baseline_memory_circuit(
                d, ErrorModel(hardware=BASELINE_HARDWARE, p=P_BELOW)
            )
            result, seconds, tiers = _timed_run_with_tiers(
                below_memory, shots=n, seed=0, workers=1,
            )
            below.append({
                "distance": d,
                "p": P_BELOW,
                "shots_per_sec": n / seconds,
                "logical_errors": result.logical_errors,
                "decode_tiers": {t: tiers[t] for t in TIER_NAMES},
                "unique_syndromes": tiers["unique"],
            })
        return sampling, end_to_end, below, _decode_only(n)

    sampling, end_to_end, below, decode_only = once(measure)

    rate = {
        (row["distance"], row["backend"]): row["shots_per_sec"] for row in sampling
    }
    speedups = {d: rate[(d, "packed")] / rate[(d, "reference")] for d in DISTANCES}
    decode_speedups = {
        (row["distance"], row["decoder"]): row["speedup_vs_baseline"]
        for row in decode_only
    }
    payload = {
        "p": P,
        "p_below_threshold": P_BELOW,
        "shots": n,
        "cpu_count": os.cpu_count(),
        "sampling": sampling,
        "decode_only": decode_only,
        "end_to_end": end_to_end,
        "end_to_end_below_threshold": below,
        "sampling_speedup_packed_vs_reference": {
            str(d): speedups[d] for d in DISTANCES
        },
        # unionfind only: its baseline is the actual PR 2 implementation;
        # the mwpm rows carry their own (tier-dispatch-only) baseline
        # label inline in decode_only.
        "decode_speedup_tiered_vs_pr2": {
            str(d): decode_speedups[(d, "unionfind")] for d in DISTANCES
        },
        # Batched lockstep kernel vs the current flat decoder (same
        # dedup+loop harness on both sides) — the kernel's own gain.
        "decode_speedup_batched_vs_flat": {
            str(row["distance"]): row["speedup_batched_vs_flat"]
            for row in decode_only
            if row["decoder"] == "unionfind"
        },
    }
    # Merge-write: other benches (bench_program_sweep) own their own
    # top-level sections of the same file.
    merge_bench_json(BENCH_JSON, payload)

    print()
    print(ascii_table(
        ["d", "backend", "sampling shots/sec", "speedup"],
        [
            (row["distance"], row["backend"], f"{row['shots_per_sec']:,.0f}",
             f"{row['shots_per_sec'] / rate[(row['distance'], 'reference')]:.2f}x")
            for row in sampling
        ],
        title=f"Frame-simulation pipeline (p={P}, {n} shots)",
    ))
    print(ascii_table(
        ["d", "decoder", "tiered shots/sec", "baseline shots/sec", "speedup", "tiers t/w1/w2/b/f"],
        [
            (row["distance"], row["decoder"],
             f"{row['tiered_shots_per_sec']:,.0f}",
             f"{row['baseline_shots_per_sec']:,.0f}",
             f"{row['speedup_vs_baseline']:.2f}x",
             "/".join(str(row["tiers"][t]) for t in TIER_NAMES))
            for row in decode_only
        ],
        title=(
            f"Decode path: tiered decode_batch vs baseline (p={P}; "
            "unionfind baseline = PR 2 legacy dict, mwpm baseline = "
            "dedup+loop on the same decode)"
        ),
    ))
    print(ascii_table(
        ["d", "backend", "workers", "shots/sec"],
        [
            (row["distance"], row["backend"], row["workers"],
             f"{row['shots_per_sec']:,.0f}")
            for row in end_to_end
        ],
        title=f"End-to-end engine incl. decoding ({os.cpu_count()} cores, p={P})",
    ))
    print(ascii_table(
        ["d", "shots/sec", "unique", "tiers t/w1/w2/b/f"],
        [
            (row["distance"], f"{row['shots_per_sec']:,.0f}", row["unique_syndromes"],
             "/".join(str(row["decode_tiers"][t]) for t in TIER_NAMES))
            for row in below
        ],
        title=f"End-to-end below threshold (p={P_BELOW}, workers=1)",
    ))
    print(f"wrote {BENCH_JSON}")

    minimum = _min_speedup()
    for d in DISTANCES:
        assert speedups[d] >= minimum, (
            f"packed sampling only {speedups[d]:.2f}x reference at d={d}; "
            f"expected >= {minimum}x"
        )
    decode_minimum = _min_decode_speedup()
    for d in DISTANCES:
        got = decode_speedups[(d, "unionfind")]
        assert got >= decode_minimum, (
            f"tiered union-find decode only {got:.2f}x the PR 2 baseline at "
            f"d={d}; expected >= {decode_minimum}x"
        )
    # MWPM's tiered dispatch must not cost more than the plain dedup +
    # decode loop it wraps.  Gate at the largest distance, where nearly
    # every p=5e-3 unique is heavy and both sides run the same blossom
    # loop; smaller distances mix tiers, so their ratio is 1.0 plus
    # timing noise in either direction and is recorded, not gated.
    mwpm_minimum = _min_mwpm_decode_speedup()
    d = max(DISTANCES)
    got = decode_speedups[(d, "mwpm")]
    assert got >= mwpm_minimum, (
        f"tiered MWPM decode only {got:.2f}x its dedup+loop baseline at "
        f"d={d}; expected >= {mwpm_minimum}x"
    )


def test_obs_overhead(once):
    """Observability tax: instrumented vs noop on the d=7 hot path.

    Each rep times the identical single-worker engine run twice back to
    back — registry + tracer disarmed and armed, the first slot swapping
    every rep — and the median-ratio rep is recorded (same pairing
    discipline as the decode bench: pairing cancels machine drift, the
    median sheds scheduler hiccups).  The
    armed run must stay within ``REPRO_BENCH_MAX_OBS_OVERHEAD`` of the
    noop run, and both runs must produce bit-identical logical-error
    counts — instrumentation that perturbed results would be worse than
    instrumentation that cost 10%.
    """
    n = max(shots(4096), OBS_MIN_SHOTS)
    d = max(DISTANCES)
    memory = baseline_memory_circuit(d, ErrorModel(hardware=BASELINE_HARDWARE, p=P))

    def run_once() -> tuple[float, int]:
        start = time.perf_counter()
        result = run_memory_experiment(memory, shots=n, seed=0, workers=1)
        return time.perf_counter() - start, result.logical_errors

    def armed_run():
        reg = obs.enable()
        tracer = obs.enable_tracing()
        try:
            return (*run_once(), reg.snapshot(), tracer)
        finally:
            obs.disable()
            obs.disable_tracing()

    def measure():
        try:
            obs.disable()
            obs.disable_tracing()
            run_once()  # warm-up outside every timed region
            reps = []
            tracer = None
            for rep in range(DECODE_REPEATS):
                (noop_elapsed, noop_errors), armed = _paired(
                    rep, run_once, armed_run
                )
                instr_elapsed, instr_errors, snapshot, tracer = armed
                # Bit-identity: the armed run must not perturb results.
                assert instr_errors == noop_errors, (instr_errors, noop_errors)
                totals = obs.summarize_snapshot(snapshot)
                assert totals.get("repro_engine_shots_total") == n, totals
                reps.append((instr_elapsed / noop_elapsed, noop_elapsed,
                             instr_elapsed))
            spans_written = tracer.write_jsonl(OBS_TRACE_OUT)
            reps.sort(key=lambda rep: rep[0])
            return reps, spans_written
        finally:
            obs.disable()
            obs.disable_tracing()

    reps, spans_written = once(measure)
    ratio, noop_elapsed, instr_elapsed = reps[len(reps) // 2]
    maximum = _max_obs_overhead()
    payload = {
        "obs_overhead": {
            "distance": d,
            "shots": n,
            "repeats": DECODE_REPEATS,
            "ratios": [rep[0] for rep in reps],
            "overhead_ratio": ratio,
            "max_allowed": maximum,
            "noop_shots_per_sec": n / noop_elapsed,
            "instrumented_shots_per_sec": n / instr_elapsed,
            "trace_spans": spans_written,
            "trace_sample": OBS_TRACE_OUT.name,
        }
    }
    merge_bench_json(BENCH_JSON, payload)

    print()
    print(ascii_table(
        ["d", "noop shots/sec", "instrumented shots/sec", "overhead"],
        [(d, f"{n / noop_elapsed:,.0f}", f"{n / instr_elapsed:,.0f}",
          f"{(ratio - 1.0) * 100:+.2f}%")],
        title=(f"Observability overhead (median of {DECODE_REPEATS} paired "
               f"reps, p={P}, {n} shots, workers=1)"),
    ))
    print(f"wrote {BENCH_JSON} and {OBS_TRACE_OUT} ({spans_written} spans)")

    assert ratio <= maximum, (
        f"instrumented engine run is {ratio:.3f}x the noop run at d={d}; "
        f"expected <= {maximum}x (REPRO_BENCH_MAX_OBS_OVERHEAD)"
    )
