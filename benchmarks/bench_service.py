"""Campaign-service benchmarks: what the long-lived front-end buys.

Recorded in the ``service`` section of ``BENCH_engine.json``:

- **warm caches** — two compare campaigns that share lowering/decoder
  graphs, run back-to-back through one scheduler.  The second job must
  hit the cross-job shared caches (``hits > 0``) and run no slower than
  the first (typically faster: every graph build is amortized).
- **admission** — a saturated queue answers ``queue-full`` immediately;
  the decision latency is measured and must stay under 50 ms (the
  "never hangs" contract, with three orders of magnitude of slack).
- **identity** — the job results and ledger block records are
  byte-identical to the same campaigns run through the CLI's execution
  path with cold caches: the service changes wall-clock, never counts.
"""

import time
from pathlib import Path

from conftest import merge_bench_json, shots, workers
from repro.durable import DurableExecutor, RetryPolicy, RunLedger, parse_ledger
from repro.report import ascii_table
from repro.service import (
    JobStore,
    Scheduler,
    TERMINAL_STATES,
    execute_spec,
    spec_from_payload,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

FAST = RetryPolicy(retry_base_delay=0.001)


def _payload(seed: int, n: int) -> dict:
    return {
        "command": "compare",
        "program": "pairs",
        "qubits": 2,
        "embeddings": ["natural"],
        "refresh_policies": ["dram"],
        "distances": [3],
        "shots": n,
        "seed": seed,
    }


def _cli_run(spec, path, w):
    """The CLI's runner, ``run_spec`` (via ``execute_spec``): fresh
    ledger, cold per-call caches, no persistent fleet."""
    ledger = RunLedger(path, spec)
    executor = DurableExecutor(ledger, workers=w, policy=FAST)
    try:
        return execute_spec(spec, executor)
    finally:
        ledger.close()


def _wait(store, job_id, timeout=600.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = store.get(job_id)
        if job.state in TERMINAL_STATES:
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} still {store.get(job_id).state}")


def test_service_shared_caches_and_admission(once, tmp_path):
    n = shots(2048)
    w = workers(1)
    specs = [spec_from_payload(_payload(seed, n)) for seed in (0, 1)]

    def measure():
        cli = []
        for i, spec in enumerate(specs):
            start = time.perf_counter()
            result = _cli_run(spec, tmp_path / f"cli{i}.jsonl", w)
            cli.append((result, time.perf_counter() - start))

        store = JobStore(tmp_path / "svc")
        scheduler = Scheduler(store, workers=w, policy=FAST, queue_limit=2)
        scheduler.start()
        try:
            served = []
            for spec in specs:
                job_id = scheduler.admit(spec).job.id
                start = time.perf_counter()
                job = _wait(store, job_id)
                served.append((job, time.perf_counter() - start))

            # Saturate the held queue and time the explicit rejection.
            scheduler.pause()
            for seed in (10, 11):
                scheduler.admit(spec_from_payload(_payload(seed, n)))
            start = time.perf_counter()
            rejection = scheduler.admit(spec_from_payload(_payload(99, n)))
            rejection_seconds = time.perf_counter() - start
            stats = scheduler.stats()
        finally:
            scheduler.unpause()
            scheduler.drain(timeout=60.0)
        return {
            "cli": cli,
            "served": served,
            "rejection": (rejection.outcome, rejection_seconds),
            "caches": stats["caches"],
            "store": store,
        }

    out = once(measure)
    store = out["store"]
    (first_job, first_seconds), (second_job, second_seconds) = out["served"]

    # Identity: the service is a front-end, not a different engine.
    # (The "caches" key is operational metadata — cumulative for the
    # service's shared caches — so counts are compared without it.)
    for i, (spec, (cli_result, _)) in enumerate(zip(specs, out["cli"])):
        job = store.get(first_job.id if i == 0 else second_job.id)
        assert job.state == "done"
        assert {k: v for k, v in job.result.items() if k != "caches"} == {
            k: v for k, v in cli_result.items() if k != "caches"
        }
        assert (parse_ledger(store.ledger_path(job.id)).blocks
                == parse_ledger(tmp_path / f"cli{i}.jsonl").blocks)

    # The second job hit the caches the first job populated.
    lowering = out["caches"]["lowering"]
    graph = out["caches"]["decoder_graph"]
    assert lowering["hits"] > 0, f"no cross-job lowering hits: {lowering}"
    assert graph["hits"] > 0, f"no cross-job graph hits: {graph}"

    # Admission rejection is explicit and immediate.
    outcome, rejection_seconds = out["rejection"]
    assert outcome == "queue-full"
    assert rejection_seconds < 0.05, (
        f"queue-full decision took {rejection_seconds * 1e3:.1f} ms"
    )

    cli_cold_seconds = out["cli"][1][1]
    merge_bench_json(BENCH_JSON, {
        "service": {
            "shots": n,
            "workers": w,
            "first_job_seconds": first_seconds,
            "second_job_seconds": second_seconds,
            "cli_cold_seconds": cli_cold_seconds,
            "warm_speedup_x": cli_cold_seconds / second_seconds,
            "lowering_cache": lowering,
            "graph_cache": graph,
            "queue_full_ms": rejection_seconds * 1e3,
        }
    })

    print()
    print(ascii_table(
        ["path", "seconds", "vs cold CLI"],
        [
            ("CLI (cold caches)", f"{cli_cold_seconds:.2f}", "1.00x"),
            ("service job 1 (cold)", f"{first_seconds:.2f}",
             f"{cli_cold_seconds / first_seconds:.2f}x"),
            ("service job 2 (warm)", f"{second_seconds:.2f}",
             f"{cli_cold_seconds / second_seconds:.2f}x"),
        ],
        title=f"campaign service, pairs q2 d3 ({n} shots/job; "
              f"lowering hits {lowering['hits']}, "
              f"queue-full in {rejection_seconds * 1e3:.2f} ms)",
    ))
    print(f"wrote {BENCH_JSON}")
