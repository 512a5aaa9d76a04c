#!/usr/bin/env python3
"""Measure a workload's reference logical-error rate for ``spec.json``.

Usage (from the root of a checkout)::

    python3 perfbench/calibrate.py --workload memory-d7-threshold --campaigns 100

Runs untimed campaigns at seeds 10**9 + i (disjoint from the seeds the
benchmark derives from small ``--seed`` values) and prints the summed
``{"errors", "shots"}`` to record under ``reference`` in ``spec.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--campaigns", type=int, default=100)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / "calibrate"
    workdir.mkdir(parents=True, exist_ok=True)
    errors = shots = 0
    try:
        state, _ = workload.setup(0)
        for i in range(args.campaigns):
            result = workload.campaign(state, 10**9 + i, workdir)
            errors += result.errors
            shots += result.shots
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({args.workload: {"errors": errors, "shots": shots}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
