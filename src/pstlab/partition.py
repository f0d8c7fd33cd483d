"""Weighted equitable partitions and their quotient walks.

Every vertex carries the weight omega(v), the Euclidean norm of its
adjacency column. A partition is equitable when for every ordered cell pair
(C_i, C_j) the weight-scaled connection strength

    b_ij(u) = sum_{v in C_j} A[u, v] * omega(v) / omega(u)

is the same for every u in C_i. Packing the normalized weights into the
partition matrix Q (one orthonormal column per cell) turns the quotient into
B = Q^T A Q, and equitability is exactly the condition under which the walk
on B reproduces the walk on A for states that respect the cells.

Partition file format (JSON text)::

    {"n": <int>, "cells": [[v, ...], ...]}

with 1-based vertex ids; cells must be disjoint, non-empty and cover 1..n.
Cell order in the file fixes the quotient vertex order. As for graph
documents, an ``n`` above the size cap is refused with ResourceCapError.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePartitionError,
    FormatError,
    InvalidSizeError,
    NotEquitableError,
    PreconditionError,
    ResourceCapError,
)
from .graph_core import WeightedGraph, _check_vertex, _parse_json, resolve_size_cap
from .spectral import eigh, eigh_matrix, evolve

TOL_EQ = 1e-10

# An automorphism claim must reproduce the adjacency to this accuracy before
# its orbits may be used as a partition.
_AUTOMORPHISM_TOL = 1e-12

_SPECTRUM_MATCH_TOL = 1e-8

_PROJECTOR_TOL = 1e-9

# Uncovered vertices named in a coverage error; the rest are only counted.
_MISSING_SHOWN = 5


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint non-empty cells of 1-based vertices covering 1..n.

    Cell order is fixed at creation and defines the vertex order of any
    quotient built from this partition. Members inside a cell are stored in
    ascending order.
    """

    n: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSizeError(f"partition needs n >= 1, got {self.n!r}")
        cells = tuple(tuple(sorted(int(v) for v in cell)) for cell in self.cells)
        seen: set[int] = set()
        for cell in cells:
            if not cell:
                raise PreconditionError("partition cells must be non-empty")
            for v in cell:
                if not 1 <= v <= self.n:
                    raise PreconditionError(f"vertex {v} outside 1..{self.n}")
                if v in seen:
                    raise PreconditionError(f"vertex {v} appears in two cells")
                seen.add(v)
        if len(seen) != self.n:
            uncovered = (v for v in range(1, self.n + 1) if v not in seen)
            shown = list(itertools.islice(uncovered, _MISSING_SHOWN))
            more = self.n - len(seen) - len(shown)
            suffix = f" and {more} more" if more else ""
            raise PreconditionError(f"partition does not cover vertices {shown}{suffix}")
        object.__setattr__(self, "cells", cells)
        cell_index = np.empty(self.n, dtype=np.int64)
        for ci, cell in enumerate(cells):
            for v in cell:
                cell_index[v - 1] = ci
        cell_index.flags.writeable = False
        object.__setattr__(self, "_cell_index", cell_index)

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def cell_index(self) -> np.ndarray:
        """0-based cell position of each vertex, indexed by 0-based vertex."""
        return self._cell_index  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.n, self.cells))


def singleton_partition(n: int) -> Partition:
    return Partition(n, tuple((v,) for v in range(1, n + 1)))


@dataclass(frozen=True, eq=False)
class PartitionMatrix:
    """Normalized partition matrix Q with the weights that built it.

    Q has one column per cell; entry (v, i) is omega(v) / omega(C_i) for v in
    cell i and zero elsewhere, so Q^T Q = I.
    """

    partition: Partition
    q: np.ndarray
    vertex_weights: np.ndarray
    cell_weights: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        vw = np.array(self.vertex_weights, dtype=float)
        cw = np.array(self.cell_weights, dtype=float)
        if q.shape != (self.partition.n, self.partition.m):
            raise PreconditionError("partition matrix shape mismatch")
        for arr in (q, vw, cw):
            arr.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "vertex_weights", vw)
        object.__setattr__(self, "cell_weights", cw)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def m(self) -> int:
        return self.partition.m


@dataclass(frozen=True, eq=False)
class EquitabilityReport:
    """Per-cell-pair connection constants plus the worst spread found.

    ``b[i, j]`` is the mean of b_ij(u) over u in C_i; ``max_spread`` is the
    largest max-minus-min of those values inside one (i, j) pair, and the
    partition is equitable exactly when it stays at or below ``TOL_EQ``.
    ``worst_cell``, ``worst_target_cell`` (1-based cell positions) and
    ``worst_vertex`` (1-based vertex) locate the offender.
    """

    equitable: bool
    b: np.ndarray
    max_spread: float
    worst_cell: int
    worst_target_cell: int
    worst_vertex: int

    def __post_init__(self) -> None:
        b = np.array(self.b, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class EquivalenceReport:
    """Four independently evaluated statements of quotient-walk consistency.

    For a valid partition either all four hold or none does: cellwise
    constancy of b_ij, A-invariance of the column space of Q, vanishing
    commutator [A, QQ^T], and existence of an intertwiner B with AQ = QB.
    """

    equitable: bool
    column_space_invariant: bool
    projector_commutes: bool
    intertwiner_exists: bool
    spread: float
    invariance_residual: float
    commutator_residual: float
    intertwiner_residual: float

    @property
    def agree(self) -> bool:
        flags = (
            self.equitable,
            self.column_space_invariant,
            self.projector_commutes,
            self.intertwiner_exists,
        )
        return all(flags) or not any(flags)


def vertex_weight(g: WeightedGraph, v: int) -> float:
    """Euclidean norm of the adjacency column of 1-based vertex v."""
    _check_vertex(g.n, v)
    return float(_omega(g)[v - 1])


def _omega(g: WeightedGraph) -> np.ndarray:
    """Column norms of the adjacency, summed over the stored nonzeros only."""
    return np.sqrt(np.bincount(g._cols, weights=g._weights * g._weights, minlength=g.n))


def _strength(g: WeightedGraph, cells: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
    """``S[v, c]``, the sum of ``A[v, u] * x[u]`` over the members ``u`` of cell ``c``.

    Summed over the stored nonzeros only; a product with a one-hot cell
    matrix would cost n^2 x cells.
    """
    flat = g._rows * m + cells[g._cols]
    return np.bincount(flat, weights=g._weights * x[g._cols], minlength=g.n * m).reshape(g.n, m)


def normalized_partition_matrix(g: WeightedGraph, p: Partition) -> PartitionMatrix:
    """Build Q from the vertex weights; rejects cells of total weight zero."""
    if p.n != g.n:
        raise PreconditionError(f"partition is over {p.n} vertices, graph has {g.n}")
    w = _omega(g)
    cells = p.cell_index
    cell_weights = np.sqrt(np.bincount(cells, weights=w * w, minlength=p.m))
    empty = np.flatnonzero(cell_weights == 0.0)
    if empty.size:
        raise DegeneratePartitionError(
            f"cell {empty[0] + 1} has zero total weight and cannot be normalized"
        )
    q = np.zeros((g.n, p.m))
    q[np.arange(g.n), cells] = w / cell_weights[cells]
    return PartitionMatrix(p, q, w, cell_weights)


def check_equitable(g: WeightedGraph, p: Partition) -> EquitabilityReport:
    """Measure cellwise constancy of the weight-scaled connection strengths; equitable within ``TOL_EQ``."""
    if p.n != g.n:
        raise PreconditionError(f"partition is over {p.n} vertices, graph has {g.n}")
    w = _omega(g)
    cells = p.cell_index
    strength = _strength(g, cells, p.m, w)
    # A zero-weight vertex has a zero adjacency column, so its connection
    # strength toward every cell is zero by continuity.
    vals = np.divide(strength, w[:, None], out=np.zeros(strength.shape), where=w[:, None] > 0.0)
    # Targets x vertices grouped by cell, so each cell is one contiguous run.
    order = np.argsort(cells, kind="stable")
    sizes = np.bincount(cells, minlength=p.m)
    starts = np.cumsum(sizes) - sizes
    by_cell = np.take(vals.T, order, axis=1)
    b = (np.add.reduceat(by_cell, starts, axis=1) / sizes).T
    spreads = (np.maximum.reduceat(by_cell, starts, axis=1) - np.minimum.reduceat(by_cell, starts, axis=1)).T
    # The first cell in cell order, then its first target cell, at the largest spread.
    ci, cj = divmod(int(np.argmax(spreads)), p.m)
    members = np.flatnonzero(cells == ci)
    offender = int(np.argmax(np.abs(vals[members, cj] - b[ci, cj])))
    max_spread = float(spreads[ci, cj])
    return EquitabilityReport(
        equitable=max_spread <= TOL_EQ,
        b=b,
        max_spread=max_spread,
        worst_cell=ci + 1,
        worst_target_cell=cj + 1,
        worst_vertex=int(members[offender]) + 1,
    )


def quotient(g: WeightedGraph, pm: PartitionMatrix) -> WeightedGraph:
    """Quotient graph B = Q^T A Q; refuses partitions that are not equitable."""
    report = check_equitable(g, pm.partition)
    if not report.equitable:
        raise NotEquitableError(
            f"partition is not equitable: cell {report.worst_cell} vertex "
            f"{report.worst_vertex} spreads b toward cell {report.worst_target_cell} "
            f"by {report.max_spread:.3e}"
        )
    return _quotient_graph(g, pm)


def _quotient_graph(g: WeightedGraph, pm: PartitionMatrix) -> WeightedGraph:
    """B = Q^T A Q for a partition whose equitability the caller has already checked.

    ``A Q`` is taken over the stored nonzeros, one strength per vertex and
    cell, and only the small ``Q^T (A Q)`` product is dense. One bincount of
    every edge straight into B would sum far more terms per entry and drift
    further from the dense product.
    """
    cells = pm.partition.cell_index
    # Q has one nonzero per row, in the column of the vertex's own cell.
    b = pm.q.T @ _strength(g, cells, pm.m, pm.q[np.arange(g.n), cells])
    # Matrix products are not bit-symmetric; the averaging only moves entries
    # at roundoff scale.
    b = 0.5 * (b + b.T)
    return WeightedGraph(pm.m, b)


def verify_theorem_equivalences(g: WeightedGraph, p: Partition) -> EquivalenceReport:
    """Evaluate the four equitability characterizations independently, each within ``TOL_EQ``."""
    pm = normalized_partition_matrix(g, p)
    a = g.adjacency
    q = pm.q
    report = check_equitable(g, p)
    aq = a @ q
    projector = q @ q.T
    invariance_residual = float(np.abs(aq - projector @ aq).max())
    commutator_residual = float(np.abs(a @ projector - projector @ a).max())
    b = q.T @ a @ q
    intertwiner_residual = float(np.abs(aq - q @ b).max())
    return EquivalenceReport(
        equitable=report.equitable,
        column_space_invariant=invariance_residual <= TOL_EQ,
        projector_commutes=commutator_residual <= TOL_EQ,
        intertwiner_exists=intertwiner_residual <= TOL_EQ,
        spread=report.max_spread,
        invariance_residual=invariance_residual,
        commutator_residual=commutator_residual,
        intertwiner_residual=intertwiner_residual,
    )


def qqt_eigenvalue_check(pm: PartitionMatrix) -> bool:
    """True when QQ^T has eigenvalues only in {0, 1}, with 1 appearing m times.

    An eigenvalue within ``_PROJECTOR_TOL`` of 0 or 1 counts as that value.
    """
    vals, _ = eigh_matrix(pm.q @ pm.q.T)
    near_one = np.abs(vals - 1.0) <= _PROJECTOR_TOL
    near_zero = np.abs(vals) <= _PROJECTOR_TOL
    if not bool(np.all(near_one | near_zero)):
        return False
    return int(near_one.sum()) == pm.m


def quotient_spectrum_subset(g: WeightedGraph, pm: PartitionMatrix) -> bool:
    """True when the quotient spectrum embeds into the parent spectrum as a multiset.

    Matching is greedy over sorted values: each quotient eigenvalue claims
    the nearest still-unclaimed parent eigenvalue and must land within
    ``_SPECTRUM_MATCH_TOL``.
    """
    b = quotient(g, pm)
    quotient_vals = sorted(float(x) for x in eigh(b).eigenvalues)
    parent_vals = sorted(float(x) for x in eigh(g).eigenvalues)
    for qv in quotient_vals:
        pos = bisect_left(parent_vals, qv)
        candidates = []
        if pos < len(parent_vals):
            candidates.append(pos)
        if pos > 0:
            candidates.append(pos - 1)
        if not candidates:
            return False
        best = min(candidates, key=lambda i: abs(parent_vals[i] - qv))
        if abs(parent_vals[best] - qv) > _SPECTRUM_MATCH_TOL:
            return False
        parent_vals.pop(best)
    return True


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected component of each of ``n`` vertices over the edges ``rows[i] - cols[i]``.

    Components are numbered 0, 1, ... in the order of their smallest vertex.
    Edges must come in both directions, as in a ``WeightedGraph``. Each round
    hooks every root onto the smallest root across its edges, then flattens
    the forest by pointer jumping; at the fixed point every vertex points to
    the smallest vertex of its component.
    """
    root = np.arange(n)
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[rows], root[cols])
        while not np.array_equal(flat := hooked[hooked], hooked):
            hooked = flat
        if np.array_equal(hooked, root):
            return np.unique(root, return_inverse=True)[1]
        root = hooked


def max_eigenvalue_preservation(g: WeightedGraph, pm: PartitionMatrix) -> bool:
    """Largest eigenvalue survives into the quotient with a positive lifted eigenvector.

    Requires a connected graph with non-negative weights so the largest
    eigenvalue is simple and its eigenvector can be taken strictly positive.
    """
    if np.any(g._weights < 0.0):
        raise PreconditionError("max_eigenvalue_preservation needs non-negative weights")
    if _components(g.n, g._rows, g._cols).max() > 0:
        raise PreconditionError("max_eigenvalue_preservation needs a connected graph")
    spec_g = eigh(g)
    b = quotient(g, pm)
    spec_b = eigh(b)
    top_g = float(spec_g.eigenvalues[-1])
    top_b = float(spec_b.eigenvalues[-1])
    if abs(top_g - top_b) > _SPECTRUM_MATCH_TOL:
        return False
    if spec_g.n > 1 and top_g - float(spec_g.eigenvalues[-2]) <= _SPECTRUM_MATCH_TOL:
        return False
    if spec_b.n > 1 and top_b - float(spec_b.eigenvalues[-2]) <= _SPECTRUM_MATCH_TOL:
        return False
    beta = spec_b.eigenvectors[:, -1]
    lifted = pm.q @ beta
    if lifted.sum() < 0.0:
        lifted = -lifted
    return bool(np.all(lifted > 0.0))


def singleton_evolution_check(
    g: WeightedGraph, pm: PartitionMatrix, u: int, v: int, t: float
) -> float:
    """Deviation between quotient and parent walk amplitudes for singleton cells.

    Both u and v (1-based) must sit in singleton cells; returns
    ``|<u~| U_B(t) |v~> - <u| U_A(t) |v>|`` where u~, v~ are their cells.
    """
    _check_vertex(g.n, u)
    _check_vertex(g.n, v)
    part = pm.partition
    cu = int(part.cell_index[u - 1])
    cv = int(part.cell_index[v - 1])
    for label, cell in ((u, cu), (v, cv)):
        if len(part.cells[cell]) != 1:
            raise PreconditionError(f"vertex {label} does not sit in a singleton cell")
    amp_parent = evolve(eigh(g), t)[u - 1, v - 1]
    b = quotient(g, pm)
    amp_quotient = evolve(eigh(b), t)[cu, cv]
    return float(abs(amp_quotient - amp_parent))


def _automorphism_deviation(g: WeightedGraph, perm: np.ndarray) -> float:
    """``max |A[perm][:, perm] - A|`` for a 0-based permutation, from the stored edges.

    The conjugate holds edge (r, c) at (perm^-1[r], perm^-1[c]). A signed
    bincount over the slot codes of both edge lists adds at most one entry
    of each side per slot, so it rounds as the dense subtraction does.
    """
    inverse = np.argsort(perm)
    codes = np.concatenate([inverse[g._rows] * g.n + inverse[g._cols], g._rows * g.n + g._cols])
    slot = np.unique(codes, return_inverse=True)[1]
    diff = np.bincount(slot, weights=np.concatenate([g._weights, -g._weights]))
    return float(np.abs(diff).max(initial=0.0))


def orbit_partition(g: WeightedGraph, perm: np.ndarray) -> Partition:
    """Cells are the cycles of a verified adjacency automorphism.

    ``perm`` is a 0-based index map (vertex i goes to perm[i]). The
    automorphism is checked on the stored edges, and the cycles are the
    components of the edges (i, perm[i]); no dense adjacency is read. Cells
    are ordered by their smallest member, members ascending.
    """
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (g.n,) or not np.array_equal(np.sort(perm), np.arange(g.n)):
        raise PreconditionError("perm is not a permutation of 0..n-1")
    dev = _automorphism_deviation(g, perm)
    if dev > _AUTOMORPHISM_TOL:
        raise PreconditionError(f"permutation is not an automorphism, deviation {dev:.3e}")
    cycle = _components(g.n, np.concatenate([np.arange(g.n), perm]), np.concatenate([perm, np.arange(g.n)]))
    order = np.argsort(cycle, kind="stable")
    cells = np.split(order + 1, np.flatnonzero(np.diff(cycle[order])) + 1)
    return Partition(g.n, tuple(tuple(cell.tolist()) for cell in cells))


def load_partition(text: str) -> Partition:
    """Parse a partition document (see the module docstring for the format)."""
    doc = _parse_json(text)
    if not isinstance(doc, dict):
        raise FormatError("partition document must be a JSON object")
    extra = set(doc) - {"n", "cells"}
    if extra:
        raise FormatError(f"unknown partition keys: {sorted(extra)}")
    if "n" not in doc or "cells" not in doc:
        raise FormatError('partition document needs both "n" and "cells"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f'"n" must be a positive integer, got {n!r}')
    limit = resolve_size_cap()
    if n > limit:
        raise ResourceCapError(f"partition document has {n} vertices, cap is {limit}")
    cells = doc["cells"]
    if not isinstance(cells, list) or not all(isinstance(c, list) for c in cells):
        raise FormatError('"cells" must be a list of lists')
    for cell in cells:
        for v in cell:
            if isinstance(v, bool) or not isinstance(v, int):
                raise FormatError(f"cell member {v!r} is not an integer")
    try:
        return Partition(n, tuple(tuple(c) for c in cells))
    except (PreconditionError, InvalidSizeError) as exc:
        raise FormatError(str(exc)) from exc


def save_partition(p: Partition) -> str:
    return json.dumps({"n": p.n, "cells": [list(cell) for cell in p.cells]})
