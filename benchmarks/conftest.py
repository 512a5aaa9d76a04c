"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the paper-vs-measured rows.  Monte-Carlo fidelity is controlled by
the ``REPRO_SHOTS`` environment variable (the paper used 2,000,000 trials
per point on a cluster; the defaults here are laptop-friendly and resolve
the *shape* — who wins, where curves cross — rather than the third digit).
``REPRO_WORKERS`` shards the Monte-Carlo engine across processes; it
changes wall-clock only, never the measured counts (see EXPERIMENTS.md).
"""

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.decoders import TIER_NAMES

REPO_ROOT = Path(__file__).resolve().parent.parent


def shots(default: int) -> int:
    return int(os.environ.get("REPRO_SHOTS", default))


def _provenance(path: Path) -> dict:
    """Which commit and machine produced a bench section written to ``path``.

    ``commit`` and ``dirty`` are null outside a git checkout.  ``dirty``
    ignores ``path`` itself, which earlier sections of the same run
    may already have rewritten.
    """
    commit = dirty = None
    if (REPO_ROOT / ".git").exists():
        try:
            commit = _git("rev-parse", "HEAD").strip()
            status = _git("status", "--porcelain", "--untracked-files=no")
        except (OSError, subprocess.CalledProcessError):
            pass
        else:
            written = os.path.relpath(path.resolve(), REPO_ROOT)
            dirty = any(line[3:] != written for line in status.splitlines())
    return {
        "commit": commit,
        "dirty": dirty,
        "date_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
    ).stdout


def merge_bench_json(path: Path, sections: dict) -> None:
    """Update ``sections`` of a bench JSON file, preserving the rest.

    Several benches share BENCH_engine.json; each owns its top-level
    keys and must not clobber the others'.  Every section written is
    stamped with :func:`_provenance` under the top-level ``provenance``
    map, so the file's history says which commit and machine produced
    each number.  The write is atomic (temp file + ``os.replace``) —
    the same durability rule the run ledger enforces — so a crash
    mid-bench leaves either the old file or the new one, never a torn
    JSON that breaks every later merge.
    """
    merged = {}
    if path.exists():
        merged = json.loads(path.read_text())
    merged.update(sections)
    stamp = _provenance(path)
    merged.setdefault("provenance", {}).update(dict.fromkeys(sections, stamp))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(merged, indent=2) + "\n")
    os.replace(tmp, path)


def decode_tiers(snapshot) -> dict:
    """Decode-tier cells plus ``unique`` from a registry snapshot (or delta).

    The ``repro_decode_*`` counters are the only total of tier occupancy
    across decode calls; benches arm a registry to read them.
    """
    cells = snapshot.get("repro_decode_tier_shots_total", {}).get("values", {})
    tiers = {t: int(cells.get(t, 0)) for t in TIER_NAMES}
    unique = obs.summarize_snapshot(snapshot).get("repro_decode_unique_total", 0)
    tiers["unique"] = int(unique)
    return tiers


def workers(default: int = 1) -> int:
    return int(os.environ.get("REPRO_WORKERS", default))


@pytest.fixture()
def once(benchmark, request):
    """Run the measured function exactly once (sweeps are expensive).

    Set ``REPRO_PROFILE=1`` to wrap the single measured call in cProfile
    and print the top cumulative entries — the quickest way to see where
    a bench's wall-clock actually goes without editing the bench.
    """
    if os.environ.get("REPRO_PROFILE"):
        import cProfile
        import pstats

        def run(fn, *args, **kwargs):
            profiler = cProfile.Profile()
            result = benchmark.pedantic(
                lambda: profiler.runcall(fn, *args, **kwargs),
                iterations=1,
                rounds=1,
            )
            print(f"\n--- cProfile: {request.node.name} ---")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
            return result

        return run

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)

    return run
