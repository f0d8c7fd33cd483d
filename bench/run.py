"""Benchmark runner for pstlab.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports pstlab from ``src/``.
BLAS is pinned to one thread before numpy loads. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json with ``--trace 0``, its
per_layer metrics with ``--trace 1``. The lines before it record the
environment and print each metric by name and unit. See bench/NOTES.md.
"""

from __future__ import annotations

import os

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("verify-sweep", "probe-nonpath", "tonks-eigenbasis", "cube-quotient")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh child processes
CHILD_TIMEOUT_S = 120


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units, and run_seconds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def require_sources() -> None:
    if not (SRC / "pstlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no pstlab sources under {SRC}")


def import_pstlab():
    """Import pstlab from this checkout's src/, never from an installed copy."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import pstlab

    if Path(pstlab.__file__).resolve().parent != SRC / "pstlab":
        raise SystemExit(f"error: imported pstlab from {pstlab.__file__}, not from {SRC}")
    return pstlab


def set_up(workload: str, seed: int, workdir: str):
    """Import pstlab, write the seeded inputs, compute oracles, warm up.

    Returns (pstlab module, items, seconds taken).
    """
    start = time.perf_counter()
    pstlab = import_pstlab()
    import workloads

    items = workloads.prepare(workload, seed, workdir)
    return pstlab, items, time.perf_counter() - start


def child_set_up(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, so the import is paid again."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: set-up child failed with exit code {done.returncode}:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Items attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


class SpeedGauge:
    """Samples the host's speed while untraced passes run.

    The host's speed switches between a fast and a slow state every few
    seconds, and how much of a run falls in each state varies from run to
    run. While a pass runs, a timer signal every INTERVAL_S times a short
    pure-Python loop from the signal handler, between pstlab's bytecodes.
    wall_norm divides the mean pass by the first quartile of these samples,
    so the host's speed cancels to first order. The quartile, not the mean,
    because an interrupt that lands in a sample lengthens it and nothing
    shortens one. The loop calls nothing in pstlab, so a change to pstlab
    cannot change it. It costs about 1.5% of the pass time, which counts
    into the pass.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(8000):
            total += i * i
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def running(self) -> Iterator[None]:
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()


def run_pass(items, tally: Tally, tracer=None) -> float:
    """Run every item once, check it, and return the summed item time.

    Each item is timed around its call into pstlab only; the check runs
    afterwards. An item that raises, returns a non-zero exit code or fails
    its check counts as failed.
    """
    wall = 0.0
    for item in items:
        tally.attempted += 1
        if tracer is not None:
            tracer.next_item()
        start = time.perf_counter()
        try:
            output = item.run()
        except Exception as exc:  # a crashing item is a failure, not the end of the run
            wall += time.perf_counter() - start
            tally.failed += 1
            print(f"FAIL {item.label}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        wall += time.perf_counter() - start
        reason = item.check(output, item.expected)
        if reason is not None:
            tally.failed += 1
            print(f"FAIL {item.label}: {reason}", file=sys.stderr)
    return wall


def measure(pstlab, items, seconds: float, trace: bool, tally: Tally) -> tuple[dict, dict]:
    """Repeat passes while the next one still fits in ``seconds``; at least one.

    Returns (metrics, pass record). Untraced, wall_norm is the mean pass
    over the first quartile of the SpeedGauge samples. Traced, untraced and traced passes
    alternate, trace.overhead_s is the difference of their median passes,
    and each per-layer metric is the median over the traced passes.
    """
    import spans

    gauge = SpeedGauge()
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        with gauge.running():
            plain.append(run_pass(items, tally))
        if trace:
            tracer = spans.Tracer()
            with spans.traced(tracer, pstlab):
                traced.append(run_pass(items, tally, tracer))
            per_pass.append(spans.layer_metrics(tracer))
        now = time.perf_counter()
        if now - start + (now - step) > seconds:
            break
    record = {
        "wall_s": statistics.median(plain),
        "gauge_samples": len(gauge.samples),
        "gauge_q1_s": statistics.quantiles(gauge.samples, n=4)[0],
        "pass_walls_s": {"plain": plain, "traced": traced},
    }
    if not trace:
        return {"wall_norm": statistics.fmean(plain) / record["gauge_q1_s"]}, record
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - record["wall_s"]
    return metrics, record


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark pstlab on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 reports per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        pstlab, items, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        setups = [setup_s]
        if not args.trace:
            setups += [child_set_up(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        tally = Tally()
        metrics, record = measure(pstlab, items, args.seconds, bool(args.trace), tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy

    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **record,
        "items": [item.label for item in items],
        "setup_samples_s": setups,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
    }
    print("env " + json.dumps(env))
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
