"""Print every metric of every workload by name and unit.

    python3 bench/report.py --seed 1 --trace 0

Runs bench/run.py once per workload, each in its own process, and prints one
line per metric: workload, name, value, unit. ``--trace 1`` prints the
per-layer metrics instead. Exits 1 if a run fails or an output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description="Run every workload and print its metrics.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in run.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--trace", str(args.trace)],
            cwd=run.ROOT,
            capture_output=True,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{workload}: {result['failed']} of {result['attempted']} items failed\n{done.stderr}", file=sys.stderr)
            status = 1
        for name, metric in result["metrics"].items():
            print(f"{workload:<17} {name:<40} {metric['value']:<22.6g} {metric['unit']}")
        print(f"{workload:<17} {'failed/attempted':<40} {result['failed']}/{result['attempted']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
