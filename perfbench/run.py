#!/usr/bin/env python3
"""Layered Monte-Carlo benchmark of the reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload memory-d7-threshold --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``shots_per_s``,
``setup_s``, ``peak_rss_mb``): the cold path is set up several times,
then campaigns run closed-loop, one after another, for ``--seconds``;
medians over cold paths and over campaigns are reported.  Campaign 1
repeats campaign 0's seed, and the two must agree count for count.
Timings are reported at nominal host speed: each is scaled by the
slowdown of a fixed host probe timed next to it (``spec.json``), and
the raw medians are printed alongside.

``--trace 1`` measures the per-layer metrics: a fixed number of
campaigns runs traced (spans around each layer's public functions, see
``layers.py``) and again untraced at the same seeds.  Counts must agree
between the two, the difference in ``shots_per_s`` is reported as the
tracing overhead, and the layer self times must leave at most the
tolerance in ``spec.json`` unattributed.

Every run checks its outputs (repeatable counts, tier sums on every
``decode_batch``, durable unit accounting, no uncovered surgery windows,
logical-error rate against the reference in ``spec.json``), prints every
metric by name with its unit, appends a result record with provenance to
``.perfbench/results.jsonl`` and ends with one JSON line.  A failed check
marks every block of the run failed and exits 1.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOAD_NAMES = ("memory-d7-threshold", "memory-d11-durable", "program-d3-compare")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_nonnegative, default=0)
    parser.add_argument("--seconds", type=_positive, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Checks shared by both modes
# ----------------------------------------------------------------------
def rate_check(name: str, campaigns) -> tuple[bool, str]:
    """The run's logical-error rate agrees with the reference (``spec.json``)."""
    from repro.sim.stats import wilson_interval

    rule = SPEC["rate_check"]
    ref = SPEC["reference"][name]
    z = statistics.NormalDist().inv_cdf(
        1 - (1 - rule["confidence"]) / (2 * rule["family_runs"])
    )
    errors = sum(c.errors for c in campaigns)
    shots = sum(c.shots for c in campaigns)
    lo, hi = wilson_interval(errors, shots, z)
    ref_lo, ref_hi = wilson_interval(ref["errors"], ref["shots"], z)
    ok = lo <= ref_hi and ref_lo <= hi
    return ok, (f"logical-error rate {errors}/{shots}: Wilson [{lo:.3e}, {hi:.3e}] "
                f"{'overlaps' if ok else 'MISSES'} reference [{ref_lo:.3e}, {ref_hi:.3e}] "
                f"(z={z:.2f})")


def campaign_check(campaigns, tracers) -> tuple[bool, str]:
    """Tier sums, durable accounting and surgery coverage of every campaign."""
    problems = [p for c in campaigns for p in c.problems]
    problems += [v for t in tracers for v in t.tier_violations]
    return not problems, "tier sums, durable accounting, surgery coverage: " + (
        "; ".join(problems[:5]) if problems else "all hold"
    )


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
class HostProbe:
    """Times a fixed pure-Python + NumPy kernel: the host's current speed.

    The arrays are allocated once, so probing between campaigns does not
    change the run's peak memory.
    """

    def __init__(self, nominal_s: float):
        import numpy as np

        self.nominal_s = nominal_s
        self._a = np.arange(200_000, dtype=np.int64)
        self._b = np.empty_like(self._a)

    def slowdown(self) -> float:
        """Probe time over the nominal one (above 1 when the host is slow)."""
        import numpy as np

        t0 = perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        np.copyto(self._b, self._a)
        for _ in range(6):
            np.multiply(self._b, 3, out=self._b)
            np.add(self._b, 1, out=self._b)
            np.remainder(self._b, 1_000_003, out=self._b)
        self._b.sort()
        return (perf_counter() - t0) / self.nominal_s


def run_untraced(workload, seed: int, seconds: float, workdir: Path):
    from layers import Tracer, instrument
    from workloads import campaign_seed

    # The shared host's speed drifts by up to ~1.6x within an hour, so each
    # timing is scaled by the slowdown of the host probe timed next to it.
    host = HostProbe(SPEC["host_probe"]["nominal_s"])
    checker = Tracer("untraced", spans=False)
    with instrument(checker):
        setups, setup_slowdowns = [], []
        for _ in range(workload.setup_repeats):
            setup_slowdowns.append(host.slowdown())
            state, dt = workload.setup(seed)
            setups.append(dt)
        campaigns, slowdowns = [], [host.slowdown()]
        start = perf_counter()
        while len(campaigns) < 2 or perf_counter() - start < seconds:
            # Campaign 1 repeats campaign 0's seed: counts must repeat.
            index = max(0, len(campaigns) - 1)
            campaigns.append(workload.campaign(state, campaign_seed(seed, index), workdir))
            slowdowns.append(host.slowdown())
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    rates = [c.shots / c.seconds for c in campaigns]
    # A campaign's slowdown is the mean of the probes before and after it.
    campaign_slowdowns = [(a + b) / 2 for a, b in zip(slowdowns, slowdowns[1:])]
    metrics = {
        # Medians, so a burst of load covering a minority of samples drops out.
        "shots_per_s": (statistics.median(r * k for r, k in zip(rates, campaign_slowdowns)),
                        "shots/s"),
        "setup_s": (statistics.median(t / k for t, k in zip(setups, setup_slowdowns)), "s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
    }
    checks = [campaign_check(campaigns, [checker])]
    same = campaigns[0].signature == campaigns[1].signature
    checks.append((same, f"repeated seed gives identical counts: "
                   f"{campaigns[0].signature} vs {campaigns[1].signature}"))
    checks.append(rate_check(workload.name, campaigns))
    info = {
        "raw_shots_per_s": statistics.median(rates),
        "raw_setup_s": statistics.median(setups),
        "host_slowdown": statistics.median(slowdowns + setup_slowdowns),
        "campaigns": len(campaigns),
    }
    return metrics, checks, campaigns, info, []


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def run_traced(workload, seed: int, workdir: Path):
    from layers import Tracer, instrument
    from workloads import campaign_seed

    seeds = [campaign_seed(seed, i) for i in range(workload.traced_campaigns)]
    main = Tracer("traced workers=2 run" if workload.durable else "traced run")
    with instrument(main):
        state, dt = workload.setup(seed)
        traced = [workload.campaign(state, s, workdir) for s in seeds]
    main.wall = dt + sum(c.seconds for c in traced)
    cache_hit_frac = workload.cache_hit_frac(state)

    checker = Tracer("untraced", spans=False)
    with instrument(checker):
        untraced = [workload.campaign(state, s, workdir) for s in seeds]
    tracers = [main, checker]
    inline = []
    worker = None
    if workload.durable:
        # Worker-side spans cannot leave forked children, so the worker
        # layers come from the same units run traced with workers=1.
        worker = Tracer("traced workers=1 run")
        with instrument(worker):
            inline = [workload.campaign(state, s, workdir, workers=1) for s in seeds]
        worker.wall = sum(c.seconds for c in inline)
        tracers.append(worker)

    checks = [campaign_check(traced + untraced + inline, tracers)]
    for label, runs in (("traced", traced), ("traced workers=1", inline)):
        if runs:
            same = [a.signature for a in runs] == [b.signature for b in untraced]
            checks.append((same, f"{label} counts equal untraced counts at the same seeds"))
    tolerance = SPEC["layer_sum_tolerance"]
    for tracer in (main, worker):
        if tracer is None:
            continue
        share = tracer.other() / tracer.wall
        checks.append((share <= tolerance,
                       f"layer sum ({tracer.label}): other_s is {share:.2%} of traced wall "
                       f"{tracer.wall:.3f} s (tolerance {tolerance:.0%})"))
    checks.append(rate_check(workload.name, untraced))

    def rate(runs):
        return sum(c.shots for c in runs) / sum(c.seconds for c in runs)

    overhead = 100 * (rate(untraced) - rate(traced)) / rate(untraced)
    metrics = layer_metrics(main, worker, traced, cache_hit_frac, overhead)
    info = {"traced_campaigns": len(seeds), "untraced_shots_per_s": rate(untraced),
            "traced_shots_per_s": rate(traced)}
    return metrics, checks, traced + untraced + inline, info, [t for t in (main, worker) if t]


def layer_metrics(main, worker, traced, cache_hit_frac, overhead_pct):
    """Every per-layer metric as ``name -> (value, unit, source run)``."""
    hot = worker or main  # the run whose process executed the decode path
    hot_self = hot.self_times()
    counts = hot.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def from_main(name, value, unit):
        out[name] = (value, unit, main.label)

    def from_hot(name, value, unit):
        out[name] = (value, unit, hot.label)

    out: dict = {}
    for layer in ("circuit.build", "vlq.compile_program", "vlq.lower", "analyze.certify",
                  "dem.extract", "graph.build", "decoder.init", "sim.compile"):
        from_main(f"{layer}_s", main.busy(layer), "s")
    from_main("dem.mechanisms", main.counts.get("dem.mechanisms", 0), "count")
    from_main("graph.edges", main.counts.get("graph.edges", 0), "count")
    from_main("campaign.cache_hit_frac", cache_hit_frac, "ratio")

    sample_s = hot.busy("sim.sample")
    from_hot("sim.sample_s", sample_s, "s")
    from_hot("sim.sample_us_per_shot", 1e6 * ratio(sample_s, counts.get("sim.shots", 0)), "us")
    from_hot("decode.batch_s", hot.busy("decode.batch"), "s")
    from_hot("decode.dispatch_s", hot_self.get("decode.dispatch", 0.0), "s")
    from_hot("decode.unique_frac",
             ratio(counts.get("decode.unique", 0), counts.get("decode.shots", 0)), "ratio")
    for tier in ("trivial", "weight1", "weight2", "cached", "batched", "full"):
        from_hot(f"decode.tier.{tier}", counts.get(f"decode.{tier}", 0), "count")
    hits, misses = counts.get("decode.lru_hits", 0), counts.get("decode.lru_misses", 0)
    from_hot("decode.lru_hit_frac", ratio(hits, hits + misses), "ratio")
    from_hot("kernel.init_s", hot.busy("kernel.init"), "s")
    from_hot("kernel.grow_s", hot.busy("kernel.grow"), "s")
    from_hot("kernel.peel_s", hot_self.get("kernel.peel", 0.0), "s")
    rows = counts.get("kernel.rows", 0)
    from_hot("kernel.rows", rows, "count")
    from_hot("kernel.us_per_row", 1e6 * ratio(hot.busy("kernel.decode"), rows), "us")
    from_hot("engine.other_s", hot_self.get("engine.other", 0.0), "s")

    from_main("durable.count_s", main.busy("durable.count"), "s")
    from_main("durable.fleet_spawns", main.counts.get("durable.fleet_spawns", 0), "count")
    from_main("durable.fleet_spawn_s", main.busy("durable.fleet_spawn"), "s")
    for key, unit in (("blocks", "count"), ("retries", "count"), ("quarantined", "count"),
                      ("fallback_blocks", "count"), ("ledger_bytes", "bytes")):
        from_main(f"durable.{key}", sum(c.counts.get(f"durable.{key}", 0) for c in traced), unit)
    efficiency = 0.0
    if worker is not None:
        # Worker-side busy time of the same units run inline, over the
        # capacity two workers offered during the traced 2-worker hot phase.
        efficiency = worker.busy("engine.block") / (2 * sum(c.seconds for c in traced))
    out["durable.parallel_efficiency"] = (
        efficiency, "ratio", "traced workers=1 and workers=2 runs" if worker else main.label
    )
    tracers = [t for t in (main, worker) if t is not None]
    out["other_s"] = (sum(t.other() for t in tracers), "s", " + ".join(t.label for t in tracers))
    out["trace.wall_s"] = (sum(t.wall for t in tracers), "s", out["other_s"][2])
    out["trace.overhead_pct"] = (overhead_pct, "%", f"{main.label} vs untraced run")
    return out


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------
def provenance(workload: str, seed: int, shots: int) -> dict:
    import numpy

    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "shots_per_run": shots,
    }


def report(args, metrics, checks, info) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {info}")
    layer_docs = SPEC["per_layer"]
    for name, (value, unit, *source) in metrics.items():
        line = f"  {name:<28} {value:>14.6g} {unit:<8}"
        if source:
            doc = layer_docs[name]
            line += (f" [{source[0]}] moves {doc['moves']}: dominant in "
                     f"{doc['dominant_in']}, flat in {doc['minor_in']}")
        print(line)
    for ok, text in checks:
        print(f"  {'PASS' if ok else 'FAIL'}  {text}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src / 'repro'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("REPRO_OBS", None)  # repro.obs stays off
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracers = []
    try:
        if args.trace:
            metrics, checks, campaigns, info, tracers = run_traced(workload, args.seed, workdir)
        else:
            metrics, checks, campaigns, info, _ = run_untraced(
                workload, args.seed, args.seconds, workdir
            )
    except Exception:
        traceback.print_exc()
        metrics, checks, campaigns, info = {}, [(False, "a campaign raised")], [], {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bool(checks) and all(ok for ok, _ in checks)
    attempted = max(1, sum(c.blocks for c in campaigns))
    failed = sum(c.failed_blocks for c in campaigns) if correct else attempted
    report(args, metrics, checks, info)
    record = {
        "provenance": provenance(args.workload, args.seed, sum(c.shots for c in campaigns)),
        "trace": args.trace,
        "info": info,
        "checks": [{"ok": ok, "check": text} for ok, text in checks],
        "metrics": {name: {"value": v[0], "unit": v[1], "source": v[2] if len(v) > 2 else None}
                    for name, v in metrics.items()},
    }
    print("record " + json.dumps(record["provenance"]))
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for tracer in tracers:
        tag = tracer.label.replace(" ", "-").replace("=", "")
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}-{tag}.jsonl")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
