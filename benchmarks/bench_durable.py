"""Durable-executor overhead and resume benchmarks.

Measures what the durability layer costs and what it buys, recorded in
the ``durable`` section of ``BENCH_engine.json``:

- **overhead** — the same memory campaign through the plain engine vs
  the durable executor (ledger checkpoint per block, one decode batch
  per block, supervised scheduling).  Counts must match exactly; the
  slowdown must stay under ``REPRO_BENCH_MAX_DURABLE_OVERHEAD`` (default
  3x — per-block decode forgoes cross-block dedup by design, so some
  overhead is the price of bit-identical resumability).
- **resume** — re-running a completed campaign from its ledger must
  execute zero blocks and be at least ``REPRO_BENCH_MIN_RESUME_SPEEDUP``
  (default 5x) faster than computing it.
- **chaos** — the same campaign under injected exception faults must
  produce byte-identical ledger block records while paying only
  retry/backoff time.
"""

import os
import time
from pathlib import Path

from conftest import merge_bench_json, shots, workers
from repro.durable import DurableExecutor, FaultPlan, RetryPolicy, RunLedger, parse_ledger
from repro.noise import BASELINE_HARDWARE, ErrorModel
from repro.report import ascii_table
from repro.sim import run_memory_experiment
from repro.surface_code import baseline_memory_circuit

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

DISTANCE = 5
P = 5e-3
SEED = 0


def _max_overhead() -> float:
    return float(os.environ.get("REPRO_BENCH_MAX_DURABLE_OVERHEAD", 3.0))


def _min_resume_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_RESUME_SPEEDUP", 5.0))


def _durable_run(memory, path, n, w, fault=None):
    spec = {"bench": "durable", "shots": n, "seed": SEED, "version": 1}
    ledger = RunLedger(path, spec, fault=fault)
    executor = DurableExecutor(
        ledger,
        workers=w,
        policy=RetryPolicy(retry_base_delay=0.001),
        fault=fault,
    )
    try:
        result = run_memory_experiment(
            memory, shots=n, seed=SEED, executor=executor
        )
    finally:
        ledger.close()
    return result, executor


def test_durable_overhead_and_resume(once, tmp_path):
    n = shots(4096)
    w = workers(1)
    memory = baseline_memory_circuit(
        DISTANCE, ErrorModel(hardware=BASELINE_HARDWARE, p=P)
    )

    def measure():
        start = time.perf_counter()
        plain = run_memory_experiment(memory, shots=n, seed=SEED, workers=w)
        plain_seconds = time.perf_counter() - start

        clean = tmp_path / "clean.jsonl"
        start = time.perf_counter()
        durable, _ = _durable_run(memory, clean, n, w)
        durable_seconds = time.perf_counter() - start

        start = time.perf_counter()
        resumed, resumed_exec = _durable_run(memory, clean, n, w)
        resume_seconds = time.perf_counter() - start

        chaos = tmp_path / "chaos.jsonl"
        fault = FaultPlan(seed=1, exc_rate=0.3)
        start = time.perf_counter()
        chaotic, chaotic_exec = _durable_run(memory, chaos, n, w, fault=fault)
        chaos_seconds = time.perf_counter() - start

        return {
            "plain": (plain, plain_seconds),
            "durable": (durable, durable_seconds),
            "resumed": (resumed, resume_seconds, resumed_exec),
            "chaos": (chaotic, chaos_seconds, chaotic_exec),
            "clean_blocks": parse_ledger(clean).blocks,
            "chaos_blocks": parse_ledger(chaos).blocks,
        }

    out = once(measure)
    plain, plain_seconds = out["plain"]
    durable, durable_seconds = out["durable"]
    resumed, resume_seconds, resumed_exec = out["resumed"]
    chaotic, chaos_seconds, chaotic_exec = out["chaos"]

    # Durability must never change the counts.
    assert durable.logical_errors == plain.logical_errors
    assert durable.shots == plain.shots
    assert resumed.logical_errors == plain.logical_errors
    assert chaotic.logical_errors == plain.logical_errors
    # Chaos leaves the ledger block records byte-comparable.
    assert out["chaos_blocks"] == out["clean_blocks"]
    # Resume is a pure ledger replay.
    assert sum(o.executed_blocks for o in resumed_exec.units) == 0

    overhead = durable_seconds / plain_seconds
    resume_speedup = durable_seconds / resume_seconds
    assert overhead <= _max_overhead(), (
        f"durable overhead {overhead:.2f}x exceeds the "
        f"{_max_overhead():.1f}x gate"
    )
    assert resume_speedup >= _min_resume_speedup(), (
        f"resume speedup {resume_speedup:.2f}x under the "
        f"{_min_resume_speedup():.1f}x gate"
    )

    payload = {
        "durable": {
            "distance": DISTANCE,
            "p": P,
            "shots": n,
            "workers": w,
            "plain_shots_per_sec": n / plain_seconds,
            "durable_shots_per_sec": n / durable_seconds,
            "overhead_x": overhead,
            "resume_seconds": resume_seconds,
            "resume_speedup_x": resume_speedup,
            "chaos_shots_per_sec": n / chaos_seconds,
            "chaos_retries": chaotic_exec.total_retries,
            "logical_errors": durable.logical_errors,
        }
    }
    merge_bench_json(BENCH_JSON, payload)

    print()
    print(ascii_table(
        ["path", "shots/sec", "vs plain"],
        [
            ("plain engine", f"{n / plain_seconds:.0f}", "1.00x"),
            ("durable", f"{n / durable_seconds:.0f}", f"{1 / overhead:.2f}x"),
            ("durable resume", f"{n / resume_seconds:.0f}",
             f"{plain_seconds / resume_seconds:.2f}x"),
            ("durable + chaos", f"{n / chaos_seconds:.0f}",
             f"{plain_seconds / chaos_seconds:.2f}x"),
        ],
        title=f"durable executor, d={DISTANCE} p={P} ({n} shots, "
              f"{chaotic_exec.total_retries} injected-fault retries)",
    ))
    print(f"wrote {BENCH_JSON}")
