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

Storage: every graph holds its nonzero entries, both triangles and the
diagonal, as three read-only arrays in row-major order. ``WeightedGraph(n,
adjacency)`` copies the given array once, keeps that copy as the dense
``adjacency`` and reads the nonzeros out of it in one scan. The path
builders, ``hypercube`` and ``load_graph`` build from edges alone; their dense
``adjacency`` is scattered from the nonzeros on first access and cached.
``save_graph`` and the partition layer read only the nonzeros, so building,
saving, loading and quotienting a hypercube never allocates an ``n x n`` array.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from dataclasses import FrozenInstanceError

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


class WeightedGraph:
    """Symmetric real-weighted graph on ``n`` vertices.

    Diagonal entries are self-loop weights. The nonzero entries live in three
    read-only arrays ``_rows``, ``_cols`` and ``_weights``, row-major, both
    triangles and the diagonal; a signed zero is no entry. ``WeightedGraph(n,
    adjacency)`` copies ``adjacency`` once and keeps the copy. A graph built
    from edges (``_from_slots``) scatters its ``adjacency`` on first access
    and caches it. Instances are immutable: every array is read-only and
    assigning an attribute raises FrozenInstanceError.
    """

    __slots__ = ("n", "_rows", "_cols", "_weights", "_dense")

    def __init__(self, n: int, adjacency: np.ndarray) -> None:
        if not isinstance(n, int) or n < 1:
            raise InvalidSizeError(f"vertex count must be a positive integer, got {n!r}")
        a = np.array(adjacency, dtype=float)
        if a.shape != (n, n):
            raise InvalidSizeError(f"adjacency shape {a.shape} does not match n={n}")
        flat = np.flatnonzero(a)
        rows, cols = np.divmod(flat, n)
        weights = a.ravel()[flat]
        # NaN and +-inf are nonzero, so the scan has found every one of them.
        if not np.all(np.isfinite(weights)):
            raise NonFiniteWeightError("adjacency entries must be finite")
        # Every pair with a nonzero on either side is compared; the rest are
        # two zeros of either sign, which np.array_equal(a, a.T) accepts too.
        if not np.array_equal(a[cols, rows], weights):
            raise AsymmetryError("adjacency must be exactly symmetric")
        self._freeze(n, rows, cols, weights, a)

    @classmethod
    def _from_slots(cls, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> WeightedGraph:
        """Graph from distinct 0-based slots ``u <= v`` carrying finite weights ``w``.

        Zero weights of either sign are no edge. The result equals
        ``WeightedGraph(n, dense)`` array for array, without the dense array.
        """
        u, v, w = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp), np.asarray(w, dtype=float)
        edge = w != 0.0
        u, v, w = u[edge], v[edge], w[edge]
        off = u != v
        rows, cols = np.concatenate([u, v[off]]), np.concatenate([v, u[off]])
        order = np.lexsort((cols, rows))
        g = object.__new__(cls)
        g._freeze(n, rows[order], cols[order], np.concatenate([w, w[off]])[order], None)
        return g

    def _freeze(
        self, n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, dense: np.ndarray | None
    ) -> None:
        for arr in (rows, cols, weights, dense):
            if arr is not None:
                arr.flags.writeable = False
        for name, value in zip(self.__slots__, (n, rows, cols, weights, dense)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # Pickle and copy restore the slots through _freeze, since __setattr__ refuses.
    def __getstate__(self) -> tuple:
        return self.n, self._rows, self._cols, self._weights, self._dense

    def __setstate__(self, state: tuple) -> None:
        self._freeze(*state)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, nonzeros={self._weights.size})"

    @property
    def adjacency(self) -> np.ndarray:
        """Dense read-only ``n x n`` adjacency, scattered from the nonzeros on first access."""
        if self._dense is None:
            a = np.zeros((self.n, self.n))
            a[self._rows, self._cols] = self._weights
            a.flags.writeable = False
            object.__setattr__(self, "_dense", a)
        return self._dense

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
    v = np.arange(1, n)
    return WeightedGraph._from_slots(n, v - 1, v, np.sqrt(v * (n - v)))


def simple_path(n: int) -> WeightedGraph:
    """Unweighted path on ``n`` vertices (all edge weights 1)."""
    if not isinstance(n, int) or n < 2:
        raise InvalidSizeError(f"simple_path needs n >= 2, got {n!r}")
    v = np.arange(1, n)
    return WeightedGraph._from_slots(n, v - 1, v, np.ones(n - 1))


def hypercube(dim: int, cap: int | None = None) -> WeightedGraph:
    """Hypercube of the given dimension, vertices ordered as binary strings.

    Vertex ``i`` is the dim-bit binary expansion of ``i - 1`` (most
    significant bit first), so neighbours differ in exactly one bit. Built
    from the edges ``(v, v | 1 << b)`` over every bit ``b`` clear in ``v``,
    which equals the repeated Kronecker sum with a single edge (the Cartesian
    product taken one factor at a time) without any dense array.
    """
    if not isinstance(dim, int) or dim < 1:
        raise InvalidSizeError(f"hypercube needs dimension >= 1, got {dim!r}")
    size = 2**dim
    limit = resolve_size_cap(cap)
    if size > limit:
        raise ResourceCapError(f"hypercube of dimension {dim} has {size} vertices, cap is {limit}")
    low, bit = np.nonzero((np.arange(size)[:, None] >> np.arange(dim)) & 1 == 0)
    return WeightedGraph._from_slots(size, low, low | (1 << bit), np.ones(low.size))


def _reject_constant(token: str) -> float:
    raise NonFiniteWeightError(f"non-finite weight token {token!r}")


def _parse_json(text: str, parse_constant: Callable[[str], float] | None = None) -> object:
    """``json.loads`` with every parse failure raised as FormatError.

    An integer token past Python's digit limit for int() fails with a bare
    ValueError; it is reported as malformed input too.
    """
    try:
        return json.loads(text, parse_constant=parse_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def load_graph(text: str) -> WeightedGraph:
    """Parse a graph document (see the module docstring for the format)."""
    doc = _parse_json(text, parse_constant=_reject_constant)
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
        try:
            w = float(w)
        except OverflowError:
            raise NonFiniteWeightError(f"edge {pos} weight overflows a float") from None
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
    slots = np.array(list(seen), dtype=np.intp).reshape(-1, 2) - 1
    weights = np.fromiter(seen.values(), float, len(seen))
    return WeightedGraph._from_slots(n, slots[:, 0], slots[:, 1], weights)


def save_graph(g: WeightedGraph) -> str:
    """Serialize a graph to its JSON document, edges in (u, v) lexicographic order."""
    # The stored nonzeros are in row-major order, which is already (u, v)
    # order, and hold no signed zero.
    upper = g._rows <= g._cols
    rows, cols, weights = (x[upper].tolist() for x in (g._rows, g._cols, g._weights))
    edges = [[u + 1, v + 1, w] for u, v, w in zip(rows, cols, weights)]
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
