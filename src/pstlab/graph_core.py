"""Weighted undirected graphs and the builders every other module shares.

Vertex convention, stated once for the whole package: vertex identifiers in
public signatures, file formats and CLI output are 1-based, while the
``adjacency`` arrays behind them are ordinary numpy matrices indexed from 0.
Permutations are 0-based index arrays because they are applied to adjacency
matrices directly.

Graph file format (JSON text)::

    {"n": <int>, "edges": [[u, v, w], ...]}

Endpoints are 1-based, ``u == v`` denotes a self-loop, and every undirected
edge slot may appear at most once. Duplicates are rejected rather than
summed; the same slot listed with two different weights is rejected as an
asymmetry. Weights must be finite reals. A document whose ``n`` exceeds
the size cap (``resolve_size_cap``) is refused with ResourceCapError before
anything is allocated. ``save_graph`` followed by ``load_graph`` reproduces
the adjacency matrix bit for bit, except that a ``-0.0`` entry, which is no
edge, comes back as ``0.0``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetryError,
    DuplicateEdgeError,
    FormatError,
    InvalidSizeError,
    NonFiniteWeightError,
    ResourceCapError,
)

# Vertex-count ceiling for builders: 2**14 keeps the largest dense adjacency
# around 2 GiB away and bounds hypercubes at dimension 14.
DEFAULT_SIZE_CAP = 16384

_ENV_CAP = "PSTLAB_CAP"


def resolve_size_cap(cap: int | None = None) -> int:
    """Effective vertex cap: explicit argument, else the PSTLAB_CAP variable, else the default."""
    if cap is None:
        env = os.environ.get(_ENV_CAP)
        if env is None:
            return DEFAULT_SIZE_CAP
        try:
            cap = int(env)
        except ValueError:
            raise InvalidSizeError(f"{_ENV_CAP} must be an integer, got {env!r}") from None
    cap = int(cap)
    if cap < 1:
        raise InvalidSizeError(f"size cap must be positive, got {cap}")
    return cap


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric real-weighted adjacency on ``n`` vertices.

    Diagonal entries are self-loop weights. Instances are immutable: the
    adjacency array is copied on construction and marked read-only.
    """

    n: int
    adjacency: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSizeError(f"vertex count must be a positive integer, got {self.n!r}")
        a = np.array(self.adjacency, dtype=float)
        if a.shape != (self.n, self.n):
            raise InvalidSizeError(f"adjacency shape {a.shape} does not match n={self.n}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteWeightError("adjacency entries must be finite")
        if not np.array_equal(a, a.T):
            raise AsymmetryError("adjacency must be exactly symmetric")
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    def weight(self, u: int, v: int) -> float:
        """Weight of the edge between 1-based vertices ``u`` and ``v`` (0.0 if absent)."""
        _check_vertex(self.n, u)
        _check_vertex(self.n, v)
        return float(self.adjacency[u - 1, v - 1])


def _check_vertex(n: int, v: int) -> None:
    if not isinstance(v, int) or not 1 <= v <= n:
        raise InvalidSizeError(f"vertex id {v!r} outside 1..{n}")


def weighted_path(n: int) -> WeightedGraph:
    """Path on ``n`` vertices whose edge (v, v+1) carries weight sqrt(v*(n-v)).

    These weights make the path the Hamming-weight collapse of the
    (n-1)-dimensional hypercube; its spectrum is the integer ladder
    -(n-1), -(n-3), ..., n-1 and a walker launched at one end refocuses
    perfectly at the other end at t = pi/2.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidSizeError(f"weighted_path needs n >= 2, got {n!r}")
    a = np.zeros((n, n))
    for v in range(1, n):
        w = math.sqrt(v * (n - v))
        a[v - 1, v] = w
        a[v, v - 1] = w
    return WeightedGraph(n, a)


def simple_path(n: int) -> WeightedGraph:
    """Unweighted path on ``n`` vertices (all edge weights 1)."""
    if not isinstance(n, int) or n < 2:
        raise InvalidSizeError(f"simple_path needs n >= 2, got {n!r}")
    a = np.zeros((n, n))
    for v in range(n - 1):
        a[v, v + 1] = 1.0
        a[v + 1, v] = 1.0
    return WeightedGraph(n, a)


def hypercube(dim: int, cap: int | None = None) -> WeightedGraph:
    """Hypercube of the given dimension, vertices ordered as binary strings.

    Vertex ``i`` is the dim-bit binary expansion of ``i - 1`` (most
    significant bit first), so neighbours differ in exactly one bit. Built by
    setting ``a[v, v ^ (1 << b)] = 1`` for every bit ``b``, which equals the
    repeated Kronecker sum with a single edge (the Cartesian product taken
    one factor at a time) without its dense temporaries.
    """
    if not isinstance(dim, int) or dim < 1:
        raise InvalidSizeError(f"hypercube needs dimension >= 1, got {dim!r}")
    size = 2**dim
    limit = resolve_size_cap(cap)
    if size > limit:
        raise ResourceCapError(f"hypercube of dimension {dim} has {size} vertices, cap is {limit}")
    a = np.zeros((size, size))
    v = np.arange(size)
    for b in range(dim):
        a[v, v ^ (1 << b)] = 1.0
    return WeightedGraph(size, a)


def _reject_constant(token: str) -> float:
    raise NonFiniteWeightError(f"non-finite weight token {token!r}")


def load_graph(text: str) -> WeightedGraph:
    """Parse a graph document (see the module docstring for the format)."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise FormatError("graph document must be a JSON object")
    extra = set(doc) - {"n", "edges"}
    if extra:
        raise FormatError(f"unknown graph keys: {sorted(extra)}")
    if "n" not in doc or "edges" not in doc:
        raise FormatError('graph document needs both "n" and "edges"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f'"n" must be a positive integer, got {n!r}')
    limit = resolve_size_cap()
    if n > limit:
        raise ResourceCapError(f"graph document has {n} vertices, cap is {limit}")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise FormatError('"edges" must be a list')
    a = np.zeros((n, n))
    seen: dict[tuple[int, int], float] = {}
    for pos, item in enumerate(edges):
        if not isinstance(item, list) or len(item) != 3:
            raise FormatError(f"edge {pos} must be a [u, v, w] triple, got {item!r}")
        u, v, w = item
        for end in (u, v):
            if isinstance(end, bool) or not isinstance(end, int):
                raise FormatError(f"edge {pos} endpoint {end!r} is not an integer")
            if not 1 <= end <= n:
                raise FormatError(f"edge {pos} endpoint {end} outside 1..{n}")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise FormatError(f"edge {pos} weight {w!r} is not a number")
        w = float(w)
        if not math.isfinite(w):
            raise NonFiniteWeightError(f"edge {pos} weight is not finite")
        slot = (min(u, v), max(u, v))
        if slot in seen:
            if seen[slot] != w:
                raise AsymmetryError(
                    f"edge {slot} listed with weights {seen[slot]!r} and {w!r}"
                )
            raise DuplicateEdgeError(f"edge {slot} listed twice")
        seen[slot] = w
        a[u - 1, v - 1] = w
        a[v - 1, u - 1] = w
    return WeightedGraph(n, a)


def save_graph(g: WeightedGraph) -> str:
    """Serialize a graph to its JSON document, edges in (u, v) lexicographic order."""
    a = g.adjacency
    # np.nonzero walks in row-major order, which is already (u, v) order, and
    # treats -0.0 as no edge.
    rows, cols = np.nonzero(a)
    upper = rows <= cols
    rows, cols = rows[upper], cols[upper]
    weights = a[rows, cols].tolist()
    edges = [[u + 1, v + 1, w] for u, v, w in zip(rows.tolist(), cols.tolist(), weights)]
    return json.dumps({"n": g.n, "edges": edges})


def reflection_permutation(n: int) -> np.ndarray:
    """End-to-end reflection of a path on ``n`` vertices as a 0-based index map.

    The map sends vertex v to n+1-v (1-based), is involutive, and fixes the
    midpoint when n is odd. Conjugating the adjacency of ``weighted_path(n)``
    or ``simple_path(n)`` by it leaves the matrix unchanged.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidSizeError(f"reflection_permutation needs n >= 1, got {n!r}")
    return np.arange(n - 1, -1, -1)
