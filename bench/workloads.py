"""The four benchmark workloads: seeded inputs, oracles, timed items, checks.

Every item calls pstlab through a public entry point (``pstlab.cli.main`` or
a top-level library function) looked up at call time, so the traced run sees
the wrapped bindings. The seed draws edge weights and item or cell order; it
never changes the item list or any matrix size.

Each workload is prepared by ``prepare(name, seed, workdir)``, which writes
the input files, computes the oracles and makes one warm-up call on a tiny
input. That is the set-up the benchmark times as ``setup_s``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import pstlab
import pstlab.cli

GAMMA_TOL = 1e-9  # | |gamma_measured| - 1 | on verify-sweep
PROBE_TOL = 1e-8  # |best_modulus - oracle| on probe-nonpath
RESIDUAL_TOL = 1e-8  # verify_corollary1 residual, the bound acceptance 08 uses
LADDER_TOL = 1e-9  # quotient spectrum against -D, -D+2, ..., D

VERIFY_GRID = [(n, k) for n in range(4, 10) for k in (2, 3)]
TONKS_CASES = [(8, 3), (9, 3), (8, 4), (9, 4)]
CUBE_DIMS = [11, 12]
# (label, kind, size, k): rings C_size and the hypercube Q_size.
PROBE_GRAPHS = [("ring-C12", "ring", 12, 2), ("ring-C10", "ring", 10, 3), ("cube-Q4", "cube", 4, 2)]
PROBE_DEPTH = 6  # dyadic fractions of pi down to pi/64, as the probe scans


@dataclass
class Item:
    """One timed call into pstlab and the check of what it returned.

    ``run`` is the timed call; ``check(output, expected)`` returns None when
    the output is correct, otherwise the reason. ``size`` is the largest
    matrix dimension the item builds or decomposes.
    """

    label: str
    size: int
    run: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    expected: Any


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``pstlab.cli.main`` in this process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pstlab.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


# verify-sweep ---------------------------------------------------------------


def _verify_run(n: int, k: int, out: str) -> Callable[[], tuple[int, str, str]]:
    def run():
        _remove(out)
        code, _, err = call_cli(["verify", "--n", str(n), "--k", str(k), "--out", out])
        try:
            with open(out, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            text = ""
        return code, text, err

    return run


def check_verify(output: tuple[int, str, str], expected: dict) -> str | None:
    code, text, err = output
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    try:
        reports = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report does not parse: {exc}"
    cases = [r.get("case") for r in reports] if isinstance(reports, list) else None
    if cases != [expected["case"]]:
        return f"report holds cases {cases}, expected {[expected['case']]}"
    report = reports[0]
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    if not report["checks"] or failed:
        return f"checks failed: {failed or 'none reported'}"
    gamma = abs(complex(*report["gamma_measured"]))
    if abs(gamma - expected["modulus"]) > GAMMA_TOL:
        return f"|gamma_measured| = {gamma!r}, expected {expected['modulus']!r}"
    return None


def _prepare_verify(rng: random.Random, workdir: str) -> list[Item]:
    grid = list(VERIFY_GRID)
    rng.shuffle(grid)
    items = []
    for n, k in grid:
        out = os.path.join(workdir, f"verify-n{n}-k{k}.json")
        expected = {"case": {"family": "hc-path", "n": n, "k": k}, "modulus": 1.0}
        items.append(Item(f"verify n={n} k={k}", math.comb(n, k), _verify_run(n, k, out), check_verify, expected))
    warm = os.path.join(workdir, "warm-up.json")
    check = check_verify(_verify_run(4, 2, warm)(), {"case": {"family": "hc-path", "n": 4, "k": 2}, "modulus": 1.0})
    if check is not None:
        raise RuntimeError(f"warm-up failed: {check}")
    return items


# probe-nonpath --------------------------------------------------------------


def _graph_edges(kind: str, size: int, rng: random.Random) -> tuple[int, list[list]]:
    """1-based weighted edge list of a ring C_size or a hypercube Q_size."""
    if kind == "ring":
        n = size
        pairs = [(v, (v + 1) % n) for v in range(n)]
    else:
        n = 2**size
        pairs = [(v, v ^ (1 << b)) for v in range(n) for b in range(size) if v < v ^ (1 << b)]
    edges = sorted([min(u, v) + 1, max(u, v) + 1] for u, v in pairs)
    return n, [[u, v, rng.uniform(0.5, 1.5)] for u, v in edges]


def hardcore_adjacency(n: int, edges: list[list], k: int) -> np.ndarray:
    """Ascending-label hard-core adjacency built from the edge list alone.

    Vertices are the k-subsets of 1..n in lexicographic order; moving one
    walker along an edge to an empty site contributes that edge's weight.
    """
    labels = list(itertools.combinations(range(1, n + 1), k))
    position = {label: i for i, label in enumerate(labels)}
    a = np.zeros((len(labels), len(labels)))
    for i, label in enumerate(labels):
        occupied = set(label)
        for u, v, w in edges:
            for src, dst in ((u, v), (v, u)):
                if src in occupied and dst not in occupied:
                    a[i, position[tuple(sorted(occupied - {src} | {dst}))]] = w
    return a


def dyadic_grid(depth: int = PROBE_DEPTH) -> list[float]:
    """pi and every odd multiple of pi / 2**d for d = 1..depth."""
    times = {math.pi} | {odd * math.pi / 2**d for d in range(1, depth + 1) for odd in range(1, 2**d, 2)}
    return sorted(times)


def best_offdiagonal_modulus(a: np.ndarray, times: list[float]) -> float:
    """Largest off-diagonal |exp(-i t A)| entry over the times, via numpy.linalg.eigh."""
    vals, vecs = np.linalg.eigh(a)
    best = 0.0
    for t in times:
        u = np.abs((vecs * np.exp(-1j * t * vals)) @ vecs.T)
        np.fill_diagonal(u, 0.0)
        best = max(best, float(u.max()))
    return best


def _probe_run(path: str, k: int) -> Callable[[], tuple[int, str, str]]:
    return lambda: call_cli(["probe", "--in", path, "--k", str(k)])


def check_probe(output: tuple[int, str, str], expected: float) -> str | None:
    code, text, err = output
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    try:
        best = float(json.loads(text)["best_modulus"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"probe output does not parse: {exc!r}"
    if not abs(best - expected) <= PROBE_TOL:
        return f"best_modulus {best!r} differs from the oracle {expected!r}"
    return None


def _prepare_probe(rng: random.Random, workdir: str) -> list[Item]:
    times = dyadic_grid()
    items = []
    for label, kind, size, k in PROBE_GRAPHS:
        n, edges = _graph_edges(kind, size, rng)
        path = os.path.join(workdir, f"{label}.json")
        _write_json(path, {"n": n, "edges": edges})
        oracle = best_offdiagonal_modulus(hardcore_adjacency(n, edges, k), times)
        items.append(Item(f"probe {label} k={k}", math.comb(n, k), _probe_run(path, k), check_probe, oracle))
    rng.shuffle(items)
    n, edges = _graph_edges("ring", 4, rng)
    warm = os.path.join(workdir, "warm-up.json")
    _write_json(warm, {"n": n, "edges": edges})
    code, _, err = _probe_run(warm, 2)()
    if code != 0:
        raise RuntimeError(f"warm-up failed with exit code {code}: {err.strip()}")
    return items


# tonks-eigenbasis -----------------------------------------------------------


def check_tonks(output: float, expected: float) -> str | None:
    if not (math.isfinite(output) and output <= expected):
        return f"residual {output!r} above {expected!r}"
    return None


def _prepare_tonks(rng: random.Random, workdir: str) -> list[Item]:
    cases = list(TONKS_CASES)
    rng.shuffle(cases)
    items = [
        Item(f"corollary1 n={n} k={k}", n**k, lambda n=n, k=k: pstlab.verify_corollary1(n, k), check_tonks, RESIDUAL_TOL)
        for n, k in cases
    ]
    check = check_tonks(pstlab.verify_corollary1(4, 2), RESIDUAL_TOL)
    if check is not None:
        raise RuntimeError(f"warm-up failed: {check}")
    return items


# cube-quotient --------------------------------------------------------------


def hamming_cells(dim: int, rng: random.Random) -> list[list[int]]:
    """Vertices of Q_dim (vertex i is the bit string of i - 1) grouped by weight, cells shuffled."""
    cells: list[list[int]] = [[] for _ in range(dim + 1)]
    for v in range(2**dim):
        cells[bin(v).count("1")].append(v + 1)
    rng.shuffle(cells)
    return cells


def _cube_run(dim: int, graph: str, partition: str) -> Callable[[], tuple[int, int, str, str]]:
    def run():
        _remove(graph)
        built, _, err = call_cli(["build", "hypercube", "--n", str(dim), "--out", graph])
        if built != 0:
            return built, -1, "", err
        code, text, err = call_cli(["quotient", "--in", graph, "--partition", partition])
        return built, code, text, err

    return run


def check_cube(output: tuple[int, int, str, str], expected: np.ndarray) -> str | None:
    built, code, text, err = output
    if built != 0 or code != 0:
        return f"exit codes build={built} quotient={code}: {err.strip()}"
    try:
        doc = json.loads(text)
        graph = doc["quotient"]
        b = np.zeros((graph["n"], graph["n"]))
        for u, v, w in graph["edges"]:
            b[u - 1, v - 1] = b[v - 1, u - 1] = w
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
        return f"quotient output does not parse: {exc!r}"
    if doc.get("equitable") is not True:
        return "quotient not reported equitable"
    if b.shape != (expected.size, expected.size):
        return f"quotient has {b.shape[0]} vertices, expected {expected.size}"
    dev = float(np.abs(np.linalg.eigvalsh(b) - expected).max())
    if not dev <= LADDER_TOL:
        return f"quotient spectrum is {dev!r} away from the ladder"
    return None


def _prepare_cube(rng: random.Random, workdir: str) -> list[Item]:
    items = []
    for dim in [3] + CUBE_DIMS:
        graph = os.path.join(workdir, f"cube-{dim}.json")
        partition = os.path.join(workdir, f"hamming-{dim}.json")
        _write_json(partition, {"n": 2**dim, "cells": hamming_cells(dim, rng)})
        ladder = np.arange(-dim, dim + 1, 2, dtype=float)
        items.append(Item(f"quotient Q{dim}", 2**dim, _cube_run(dim, graph, partition), check_cube, ladder))
    warm = items.pop(0)
    check = check_cube(warm.run(), warm.expected)
    if check is not None:
        raise RuntimeError(f"warm-up failed: {check}")
    return items


_PREPARE = {
    "verify-sweep": _prepare_verify,
    "probe-nonpath": _prepare_probe,
    "tonks-eigenbasis": _prepare_tonks,
    "cube-quotient": _prepare_cube,
}


def prepare(name: str, seed: int, workdir: str) -> list[Item]:
    """Write the seeded inputs, compute the oracles, warm up; return the items."""
    return _PREPARE[name](random.Random(seed), workdir)
