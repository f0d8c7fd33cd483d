"""Self-test of the benchmark itself, not of pstlab.

    python3 bench/selftest.py

Shows that:
  * two seeds give the same items and matrix sizes, only in another order;
  * every public pstlab function is wrapped at every binding, one wrapper
    per function, so eigh_matrix is counted once per call whether it is
    reached through spectral.eigh or through partition;
  * a corrupted result or an oracle offset by 1e-6 fails its check and is
    counted as failed, as are a non-zero exit code and a raising item;
  * run.py exits non-zero without a result line in a directory that holds
    only BENCHMARK.json and bench/.
Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def same_items_across_seeds(workloads, workdir: str) -> dict:
    """Prepare seeds 1 and 2 of every workload; return the seed-1 items."""
    first = {}
    for name in run.WORKLOADS:
        lists = [workloads.prepare(name, seed, tempfile.mkdtemp(dir=workdir)) for seed in (1, 2)]
        a, b = ([(item.label, item.size) for item in items] for items in lists)
        expect(sorted(a) == sorted(b), f"{name}: seeds 1 and 2 give the same items and sizes {sorted(a)}")
        first[name] = lists[0]
    return first


def wrapping(pstlab, spans, workdir: str) -> None:
    import pstlab.partition
    import pstlab.spectral

    bindings = spans.public_bindings(pstlab)
    tracer = spans.Tracer()
    with spans.traced(tracer, pstlab):
        wrappers: dict = {}
        for module, attr, fn in bindings:
            bound = getattr(module, attr)
            wrappers.setdefault(fn, bound)
            if bound is fn or bound is not wrappers[fn]:
                expect(False, f"{module.__name__}.{attr} is wrapped by its function's one wrapper")
                break
        else:
            expect(True, f"all {len(bindings)} public bindings wrapped, one wrapper per function")
        expect(
            pstlab.partition.eigh_matrix is pstlab.spectral.eigh_matrix,
            "partition and spectral share one eigh_matrix wrapper",
        )
        tracer.next_item()
        g = pstlab.weighted_path(5)
        pstlab.eigh(g)
        part = pstlab.orbit_partition(g, pstlab.reflection_permutation(5))
        pstlab.qqt_eigenvalue_check(pstlab.normalized_partition_matrix(g, part))
    expect(all(getattr(m, a) is fn for m, a, fn in bindings), "every binding restored after the traced block")
    metrics = spans.layer_metrics(tracer)
    expect(metrics["spectral.eigh.calls"] == 2, "eigh + qqt_eigenvalue_check count 2 eigh_matrix calls, not 3")
    self_s, _ = tracer.self_times()
    roots = sum(end - start for _, _, parent, start, end in tracer.spans if parent is None)
    expect(abs(sum(self_s.values()) - roots) < 1e-9, "self times add up to the root spans' durations")

    import workloads

    tracer = spans.Tracer()
    with spans.traced(tracer, pstlab):
        tracer.next_item()
        code, _, _ = workloads.call_cli(["verify", "--n", "5", "--k", "2", "--out", f"{workdir}/r.json"])
    metrics = spans.layer_metrics(tracer)
    expect(
        code == 0 and metrics["spectral.eigh.calls"] == 4 and metrics["spectral.eigh.unique_ratio"] == 0.5,
        f"verify n=5 k=2: 4 eigensolves of 2 distinct matrices (got {metrics['spectral.eigh.calls']}, "
        f"{metrics['spectral.eigh.unique_ratio']})",
    )


def corrupt_verify(output):
    code, text, err = output
    reports = json.loads(text)
    reports[0]["gamma_measured"] = [x * (1 + 1e-6) for x in reports[0]["gamma_measured"]]
    return code, json.dumps(reports), err


def corruptions(workloads) -> dict:
    """workload -> [(what, item -> corrupted item)]."""

    def output(fn):
        return lambda item: dataclasses.replace(item, run=lambda: fn(item.run()))

    def oracle(fn):
        return lambda item: dataclasses.replace(item, expected=fn(item.expected))

    return {
        "verify-sweep": [
            ("gamma_measured scaled by 1 + 1e-6", output(corrupt_verify)),
            ("exit code 1", output(lambda out: (1,) + out[1:])),
        ],
        "probe-nonpath": [("oracle offset by 1e-6", oracle(lambda x: x + 1e-6))],
        "tonks-eigenbasis": [("residual offset by 1e-6", output(lambda x: x + 1e-6))],
        "cube-quotient": [("oracle ladder offset by 1e-6", oracle(lambda x: x + 1e-6))],
    }


def run_quietly(items) -> tuple[run.Tally, str]:
    """run.run_pass with its failure messages captured; returns (tally, messages)."""
    tally = run.Tally()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        run.run_pass(items, tally)
    return tally, err.getvalue().strip()


def caught(items: dict, workloads) -> None:
    for name, cases in corruptions(workloads).items():
        item = min(items[name], key=lambda it: it.size)
        tally, _ = run_quietly([item])
        expect(tally.failed == 0, f"{name}: {item.label} passes its check")
        for what, corrupt in cases:
            tally, message = run_quietly([corrupt(item), item])
            expect(
                (tally.attempted, tally.failed) == (2, 1),
                f"{name}: {what} is caught and counted as 1 of 2 failed ({message})",
            )

    def boom():
        raise RuntimeError("injected")

    tally, message = run_quietly([dataclasses.replace(items["tonks-eigenbasis"][0], run=boom)])
    expect(tally.failed == 1, f"an item that raises is counted as failed ({message})")


def bare_directory() -> None:
    bare = tempfile.mkdtemp(dir=run.WORK)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", f"{bare}/bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify-sweep", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(
        done.returncode != 0 and '"correct"' not in done.stdout,
        f"without src/ run.py exits {done.returncode} and prints no result",
    )


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    pstlab = run.import_pstlab()
    import spans
    import workloads

    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        items = same_items_across_seeds(workloads, workdir)
        wrapping(pstlab, spans, workdir)
        caught(items, workloads)
        bare_directory()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} expectation(s) failed" if FAILURES else "all expectations hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
