"""Program-level architecture sweep: the compiled-VLQ → packed-engine path.

Runs :func:`repro.vlq.compare_architectures` over the canned Bell-pair
program — compact vs natural × DRAM-refresh vs none — and records, in a
``program_sweep`` section merged into ``BENCH_engine.json``:

- per-architecture program/worst-qubit logical error rates and wall
  clock (shots/sec across the whole multi-circuit campaign),
- the per-shape cache efficacy (one circuit lowering + one
  decoder-graph build per distinct timeline shape across the sweep),
- the decode-tier occupancy per row and in aggregate, read from the
  ``repro.obs`` registry's ``repro_decode_*`` counters (the only total
  of tier occupancy across decode calls).

Two companion sweeps ride along:

- ``program_correlated`` — the same program under ``correlated=True``:
  lattice-surgery pairs lowered as merged-patch circuits and decoded
  jointly, recorded side by side with the independence product;
- ``paper_clock`` — one full-shot sweep per embedding at the paper's
  clock (``rounds_per_timestep = d`` extraction rounds per timestep),
  checking the default-clock compact-vs-natural ordering survives.

Gates (CI smoke runs these at reduced shots):

- both shape caches must report **hits > 0** — the sweep's sharing
  contract; a key regression would silently rebuild per qubit,
- in the correlated sweep the **joint-shape caches** must report
  hits > 0 too (symmetric pairs share one merged circuit build),
- decode-tier accounting must sum to the unique-syndrome count,
- per-backend determinism: ``workers`` must never change the counts,
- the paper clock must preserve the default clock's embedding ordering.
"""

import os
import time
from pathlib import Path

from conftest import decode_tiers, merge_bench_json, shots, workers
from repro import obs
from repro.core import LogicalProgram
from repro.decoders import TIER_NAMES, BuildCache
from repro.report import ascii_table
from repro.vlq import ArchitectureComparison, compare_architectures

DISTANCES = (3,)
P = 2e-3

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def test_program_sweep(once, monkeypatch):
    n = shots(2000)
    w = workers(1)
    program = LogicalProgram.bell_pairs(4)
    # Exported so fleet workers (REPRO_WORKERS > 1) arm their registries
    # and ship tier deltas back with each block.
    monkeypatch.setenv("REPRO_OBS", "1")

    def measure():
        # One call per row over shared caches gives the rows of a single
        # sweep call, and each call's registry delta is its row's tiers.
        caches = {
            "lowering_cache": BuildCache("lowering"),
            "graph_cache": BuildCache("decoder-graph"),
        }
        rows, row_tiers = [], []
        obs.disable()
        reg = obs.enable()
        try:
            start = time.perf_counter()
            for embedding in ("compact", "natural"):
                for refresh in ("dram", "none"):
                    before = reg.snapshot()
                    rows += compare_architectures(
                        program,
                        distances=DISTANCES,
                        embeddings=(embedding,),
                        refresh_policies=(refresh,),
                        p=P,
                        shots=n,
                        seed=0,
                        workers=w,
                        program_name="pairs",
                        **caches,
                    ).rows
                    delta = obs.snapshot_delta(reg.snapshot(), before)
                    row_tiers.append(decode_tiers(delta))
            elapsed = time.perf_counter() - start
            totals = decode_tiers(reg.snapshot())
        finally:
            obs.disable()
        comparison = ArchitectureComparison(
            "pairs", program.num_qubits, n, rows, **caches
        )
        return comparison, row_tiers, totals, elapsed

    comparison, row_tiers, totals, elapsed = once(measure)

    # --- gates -----------------------------------------------------------
    lowering = comparison.lowering_cache.stats()
    graph = comparison.graph_cache.stats()
    assert lowering["hits"] > 0, f"lowering cache never hit: {lowering}"
    assert graph["hits"] > 0, f"decoder-graph cache never hit: {graph}"
    assert sum(totals[t] for t in TIER_NAMES) == totals["unique"], totals
    for stats in row_tiers:
        assert sum(stats[t] for t in TIER_NAMES) == stats["unique"], stats

    # Workers must never change a campaign's counts (spot-check one row's
    # worth of work at a different worker count).
    resharded = compare_architectures(
        program,
        distances=DISTANCES,
        embeddings=("compact",),
        refresh_policies=("dram",),
        p=P,
        shots=n,
        seed=0,
        workers=1 if w != 1 else 2,
        program_name="pairs",
    )
    baseline_row = next(
        r for r in comparison.rows if r.embedding == "compact" and r.refresh == "dram"
    )
    for a, b in zip(baseline_row.per_qubit, resharded.rows[0].per_qubit):
        assert a.result.logical_errors == b.result.logical_errors, (a.qubit, w)

    # --- record ----------------------------------------------------------
    total_shots = n * sum(len(row.per_qubit) for row in comparison.rows)
    payload = {
        "p": P,
        "program": "pairs",
        "qubits": 4,
        "shots_per_qubit": n,
        "workers": w,
        "cpu_count": os.cpu_count(),
        "campaign_shots_per_sec": total_shots / elapsed,
        "elapsed_seconds": elapsed,
        "rows": [
            {
                "embedding": row.embedding,
                "refresh": row.refresh,
                "distance": row.distance,
                "program_error_rate": row.program_error_rate,
                "worst_qubit_rate": row.worst_qubit_rate,
                "per_qubit_errors": [
                    q.result.logical_errors for q in row.per_qubit
                ],
                "timesteps": row.schedule.total_timesteps,
                "refresh_rounds": row.schedule.refresh_rounds,
                "decode_tiers": {t: stats[t] for t in TIER_NAMES},
            }
            for row, stats in zip(comparison.rows, row_tiers)
        ],
        "lowering_cache": lowering,
        "graph_cache": graph,
        "decode_tiers_total": {t: totals[t] for t in TIER_NAMES},
        "unique_syndromes_total": totals["unique"],
    }
    merge_bench_json(BENCH_JSON, {"program_sweep": payload})

    print()
    print(ascii_table(
        ArchitectureComparison.TABLE_HEADERS,
        comparison.table_rows(),
        title=(
            f"Program-level sweep: pairs(4), p={P}, {n} shots/qubit, "
            f"workers={w} ({total_shots / elapsed:,.0f} shots/s end-to-end)"
        ),
    ))
    print(
        f"lowering cache: {lowering['entries']} shapes, {lowering['hits']} hits; "
        f"decoder-graph cache: {graph['entries']} shapes, {graph['hits']} hits"
    )
    print("tiers " + "/".join(str(totals[t]) for t in TIER_NAMES)
          + f" of {totals['unique']} unique")
    print(f"wrote program_sweep section of {BENCH_JSON}")


def test_correlated_sweep(once, monkeypatch):
    """Independent-vs-joint estimates with merged surgery windows."""
    n = shots(2000)
    w = workers(1)
    program = LogicalProgram.bell_pairs(4)
    monkeypatch.setenv("REPRO_OBS", "1")

    def measure():
        obs.disable()
        reg = obs.enable()
        try:
            start = time.perf_counter()
            comparison = compare_architectures(
                program,
                distances=DISTANCES,
                refresh_policies=("dram",),
                p=P,
                shots=n,
                seed=0,
                workers=w,
                policy="surgery_only",
                correlated=True,
                program_name="pairs",
            )
            elapsed = time.perf_counter() - start
            totals = decode_tiers(reg.snapshot())
        finally:
            obs.disable()
        return comparison, totals, elapsed

    comparison, totals, elapsed = once(measure)

    # --- gates -----------------------------------------------------------
    joint = comparison.joint_cache.stats()
    joint_graph = comparison.joint_graph_cache.stats()
    assert joint["hits"] > 0, f"joint-shape cache never hit: {joint}"
    assert joint_graph["hits"] > 0, f"joint-graph cache never hit: {joint_graph}"
    assert sum(totals[t] for t in TIER_NAMES) == totals["unique"], totals
    for row in comparison.rows:
        assert row.pieces is not None and row.uncovered_windows == 0
        assert all(len(piece.qubits) == 2 for piece in row.pieces)

    # Workers must never change a correlated campaign's counts.
    resharded = compare_architectures(
        program,
        distances=DISTANCES,
        embeddings=("compact",),
        refresh_policies=("dram",),
        p=P,
        shots=n,
        seed=0,
        workers=1 if w != 1 else 2,
        policy="surgery_only",
        correlated=True,
        # Every shape was built and certified above: reuse the builds.
        lowering_cache=comparison.lowering_cache,
        graph_cache=comparison.graph_cache,
        joint_cache=comparison.joint_cache,
        joint_graph_cache=comparison.joint_graph_cache,
    )
    baseline_row = next(r for r in comparison.rows if r.embedding == "compact")
    for a, b in zip(baseline_row.pieces, resharded.rows[0].pieces):
        assert a.result.logical_errors == b.result.logical_errors, a.qubits

    # --- record ----------------------------------------------------------
    payload = {
        "p": P,
        "program": "pairs",
        "qubits": 4,
        "shots_per_qubit": n,
        "workers": w,
        "policy": "surgery_only",
        "elapsed_seconds": elapsed,
        "rows": [
            {
                "embedding": row.embedding,
                "refresh": row.refresh,
                "distance": row.distance,
                "independent_program_error_rate": row.program_error_rate,
                "joint_program_error_rate": row.joint_program_error_rate,
                "pieces": [
                    {
                        "qubits": list(piece.qubits),
                        "windows": piece.windows,
                        "logical_errors": piece.result.logical_errors,
                    }
                    for piece in row.pieces
                ],
            }
            for row in comparison.rows
        ],
        "joint_cache": joint,
        "joint_graph_cache": joint_graph,
    }
    merge_bench_json(BENCH_JSON, {"program_correlated": payload})

    print()
    print(ascii_table(
        ArchitectureComparison.CORRELATED_TABLE_HEADERS,
        comparison.correlated_table_rows(),
        title=(
            f"Correlated sweep: pairs(4), p={P}, {n} shots/qubit "
            f"(surgery windows merged, one decode per pair)"
        ),
    ))
    print(f"joint-lowering cache: {joint['entries']} shapes, {joint['hits']} hits; "
          f"joint-graph cache: {joint_graph['entries']} shapes, "
          f"{joint_graph['hits']} hits")
    print(f"wrote program_correlated section of {BENCH_JSON}")


def test_paper_clock_sweep(once):
    """One paper-clock sweep per embedding (rounds_per_timestep = d).

    The paper's logical timestep is d rounds of correction; the default
    campaign clock scales that to 1 round/timestep to keep sweeps fast.
    This records the full-clock numbers and gates that the architectural
    ordering (which embedding loses more) is the same on both clocks.
    """
    n = shots(1000)
    w = workers(1)
    program = LogicalProgram.bell_pairs(4)
    (distance,) = DISTANCES

    def measure():
        results = {}
        for rpt in (1, distance):
            start = time.perf_counter()
            comparison = compare_architectures(
                program,
                distances=DISTANCES,
                refresh_policies=("dram",),
                p=P,
                shots=n,
                seed=0,
                workers=w,
                rounds_per_timestep=rpt,
                program_name="pairs",
            )
            results[rpt] = (comparison, time.perf_counter() - start)
        return results

    results = once(measure)

    rates = {
        rpt: {row.embedding: row.program_error_rate for row in comparison.rows}
        for rpt, (comparison, _) in results.items()
    }
    # --- gate: the default-clock ordering holds at the paper clock -------
    default_order = rates[1]["compact"] >= rates[1]["natural"]
    paper_order = rates[distance]["compact"] >= rates[distance]["natural"]
    assert default_order == paper_order, rates

    payload = {
        "p": P,
        "program": "pairs",
        "qubits": 4,
        "shots_per_qubit": n,
        "distance": distance,
        "clocks": {
            str(rpt): {
                "rounds_per_timestep": rpt,
                "elapsed_seconds": elapsed,
                "rows": [
                    {
                        "embedding": row.embedding,
                        "refresh": row.refresh,
                        "program_error_rate": row.program_error_rate,
                        "worst_qubit_rate": row.worst_qubit_rate,
                    }
                    for row in comparison.rows
                ],
            }
            for rpt, (comparison, elapsed) in results.items()
        },
    }
    merge_bench_json(BENCH_JSON, {"paper_clock": payload})

    print()
    for rpt, (comparison, elapsed) in results.items():
        label = "default clock" if rpt == 1 else f"paper clock (d={distance})"
        print(f"{label}: " + ", ".join(
            f"{row.embedding} p_program={row.program_error_rate:.3e}"
            for row in comparison.rows
        ) + f" ({elapsed:.1f}s)")
    print(f"wrote paper_clock section of {BENCH_JSON}")
