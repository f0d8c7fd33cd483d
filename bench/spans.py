"""Spans around every public pstlab function, recorded from outside the package.

``traced(tracer, pstlab)`` rebinds each public function of each pstlab module to a
wrapper, wherever the name is bound: in the module that defines it, in every
module that imports it with ``from .x import y``, and in the top-level
``pstlab`` namespace. All bindings of one function share one wrapper, so a
call is recorded once whichever binding it goes through. The original
bindings are restored on exit; nothing under ``src/`` is edited.

A span is (name, item, parent, start, end). Self time is a span's duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

import numpy as np

LAYERS = ("graph_core", "products", "hardcore", "partition", "spectral", "tonks", "pst_verify", "cli")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int | None, float, float] | None] = []
        self.item = -1
        self._stack: list[int] = []
        self.eigh_inputs: list[tuple[int, int, str]] = []  # (item, dimension, digest)
        self.check_margins: list[float] = []
        self.power_bytes = 0

    def next_item(self) -> None:
        self.item += 1

    def wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, self.item, parent, start, end)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced_call

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, _, _, start, end), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            calls[name] += 1
        return self_s, calls


# Observers run after the wrapped call returns, inside the caller's span.


def _observe_eigh_matrix(tracer: Tracer, args, result) -> None:
    a = np.ascontiguousarray(args[0], dtype=float)
    digest = hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()
    tracer.eigh_inputs.append((tracer.item, a.shape[0], digest))


def _observe_run_case(tracer: Tracer, args, result) -> None:
    tracer.check_margins.extend(c.value / c.tol for c in result.checks)


def _observe_cartesian_power(tracer: Tracer, args, result) -> None:
    tracer.power_bytes += result.n * result.n * 8


_OBSERVERS = {
    "spectral.eigh_matrix": _observe_eigh_matrix,
    "pst_verify.run_case": _observe_run_case,
    "products.cartesian_power": _observe_cartesian_power,
}


def public_bindings(package: types.ModuleType) -> list[tuple[types.ModuleType, str, types.FunctionType]]:
    """(module, name, function) for every public pstlab function binding."""
    modules = [package] + [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    bindings = []
    for module in modules:
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(value, types.FunctionType)
                and value.__module__.startswith(package.__name__ + ".")
            ):
                bindings.append((module, attr, value))
    return bindings


@contextlib.contextmanager
def traced(tracer: Tracer, package: types.ModuleType) -> Iterator[None]:
    """Rebind every public pstlab function to a span-recording wrapper."""
    bindings = public_bindings(package)
    wrappers: dict[Any, Callable] = {}
    for _, _, fn in bindings:
        if fn not in wrappers:
            name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"
            wrappers[fn] = tracer.wrap(name, fn, _OBSERVERS.get(name))
    try:
        for module, attr, fn in bindings:
            setattr(module, attr, wrappers[fn])
        yield
    finally:
        for module, attr, fn in bindings:
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the two trace.* ones, from one traced pass."""
    self_s, calls = tracer.self_times()

    def total(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def layer(prefix: str) -> float:
        return sum(v for name, v in self_s.items() if name.split(".", 1)[0] == prefix)

    dims = [dim for _, dim, _ in tracer.eigh_inputs]
    distinct_per_item: dict[int, set[str]] = defaultdict(set)
    for item, _, digest in tracer.eigh_inputs:
        distinct_per_item[item].add(digest)
    distinct = sum(len(s) for s in distinct_per_item.values())
    return {
        "spectral.eigh.calls": calls["spectral.eigh_matrix"],
        "spectral.eigh.self_s": total("spectral.eigh", "spectral.eigh_matrix"),
        "spectral.eigh.dim_max": max(dims, default=0),
        "spectral.eigh.computed_work": sum(d**3 for d in dims),
        "spectral.eigh.unique_ratio": distinct / len(dims) if dims else 1.0,
        "spectral.evolve.calls": calls["spectral.evolve"],
        "spectral.evolve.self_s": total("spectral.evolve"),
        "pst_verify.self_s": layer("pst_verify"),
        "pst_verify.checks": len(tracer.check_margins),
        "pst_verify.worst_margin": max(tracer.check_margins, default=0.0),
        "hardcore.symmetric_power.self_s": total("hardcore.symmetric_power"),
        "hardcore.deletion.self_s": total("hardcore.deletion_mask", "hardcore.apply_deletion"),
        "hardcore.decompose_components.self_s": total("hardcore.decompose_components"),
        "hardcore.mirror_partition.self_s": total("hardcore.mirror_partition"),
        "products.cartesian_power.self_s": total("products.cartesian_power"),
        "products.cartesian_power.computed_bytes": tracer.power_bytes,
        "tonks.fermion_state.self_s": total("tonks.fermion_state"),
        "tonks.fermion_state.calls": calls["tonks.fermion_state"],
        "tonks.project_identical.self_s": total("tonks.project_identical"),
        "tonks.project_identical.calls": calls["tonks.project_identical"],
        "partition.check_equitable.self_s": total("partition.check_equitable"),
        "partition.quotient.self_s": total("partition.quotient", "partition.normalized_partition_matrix"),
        "partition.load_partition.self_s": total("partition.load_partition"),
        "graph_core.load_graph.self_s": total("graph_core.load_graph"),
        "graph_core.save_graph.self_s": total("graph_core.save_graph"),
        "graph_core.build.self_s": total("graph_core.hypercube", "graph_core.weighted_path", "graph_core.simple_path"),
        "cli.self_s": layer("cli"),
    }
