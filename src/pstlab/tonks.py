"""Free-fermion eigenstates and their hard-core-boson images.

A k-particle free-fermion eigenstate on the power graph is a normalized
Slater determinant over k distinct single-particle modes. It vanishes on
every collision label, survives the hard-core deletion untouched, and after
multiplication by the component-sorting signs becomes symmetric under
walker exchange. Projecting onto the ascending-label graph then yields a
complete orthonormal eigenbasis of the hard-core adjacency; eigenvalues are
sums of the chosen single-particle eigenvalues. On an ascending label the
projected amplitude is the k x k determinant itself: the eigenbasis is the
k-th compound C_k(Z) of the n-vertex eigenvectors, with column L, for the
L-th ascending mode tuple, carrying the eigenvalue sum(lambda[L]).
``_compound`` builds every entry of it at once by Laplace expansion, so a
verify case, which reads the compound as its eigenbasis, and
``verify_corollary1`` take no determinant per entry; the latter lists only
the kept labels, never the n**k power. ``_minors`` takes one determinant per
minor, for the few minors a verify case reads.

The compound is the hard-core eigenbasis on any chain, a connected path or
cycle in any vertex numbering: walkers on a chain never pass one another,
so with the vertices taken in chain order the hard-core walk is the
free-fermion walk, once the wrap hop of a cycle carries the sign
(-1)**(k - 1) of moving one walker past the other k - 1 (Jordan-Wigner;
Lieb, Schultz and Mattis, Ann. Phys. 16:407, 1961). ``_chain_modes`` takes
the n x n single-walker eigenvectors in chain order and moves the compound's
rows to the graph's own labels; verify reads it on the weighted path in
vertex order, and ``probe`` reads ``_chain_eigenbasis`` on any chain with
k <= n / 2 instead of solving the C(n, k)-vertex hard-core graph.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, InvalidSizeError
from .graph_core import WeightedGraph, _check_cap, _components, weighted_path
from .hardcore import (
    SignedDiagonal,
    _ascending,
    _kept_graph,
    _kept_table,
    _rank_ascending,
    _sort_signs,
    decompose_components,
    symmetric_power,
    unit_antisymmetry,
)
from .spectral import SpectralDecomposition, _fix_signs, eigh

# Entries gathered per block of rows by each Laplace level of ``_compound``.
_DET_BLOCK = 2**18


def _minors(u: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``det u[rows[x], cols[x]]`` for every row x of the label tables ``rows`` and ``cols``.

    The package's only determinant call, one LU factorization per minor.
    """
    return np.linalg.det(u[rows[:, :, None], cols[:, None, :]])


def _compound(z: np.ndarray, k: int) -> np.ndarray:
    """The k-th compound C_k(z): entry [X, L] is ``det z[X, L]``.

    Rows X and columns L run over the ascending k-subsets of range(n) in
    ``_ascending(n, k)`` order. Level j expands along the first row,

        C_j[X, L] = sum_c (-1)**c z[x_1, l_c] C_{j-1}[X - x_1, L - l_c],

    and keeps only the rows a later level reads: the j-subsets of
    range(k - j, n), whose tails X - x_1 lie in range(k - j + 1, n). Each
    level fills a block of rows at a time, gathering about ``_DET_BLOCK``
    entries from each of z and the previous level.
    """
    n = z.shape[0]
    prev = z[k - 1 :]
    for j in range(2, k + 1):
        rows, cols = _ascending(n - k + j, j) + (k - j), _ascending(n, j)
        tails = _rank_ascending(rows[:, 1:] - (k - j + 1), n - k + j - 1)
        minors = [_rank_ascending(np.delete(cols, c, axis=1), n) for c in range(j)]
        level = np.empty((rows.shape[0], cols.shape[0]), dtype=z.dtype)
        step = max(1, _DET_BLOCK // (cols.shape[0] * j))
        for start in range(0, rows.shape[0], step):
            lead, rest = z[rows[start : start + step, 0]], prev[tails[start : start + step]]
            acc = level[start : start + step]
            np.multiply(lead[:, cols[:, 0]], rest[:, minors[0]], out=acc)
            for c in range(1, j):
                term = lead[:, cols[:, c]]
                term *= rest[:, minors[c]]
                if c % 2:
                    acc -= term
                else:
                    acc += term
        prev = level
    return prev


def _chain_order(g: WeightedGraph) -> tuple[np.ndarray, bool] | None:
    """The vertices of a connected chain in walking order, and whether the chain closes into a cycle.

    A chain has n >= 2 vertices, each with at most 2 distinct neighbours
    among the stored off-diagonal entries; self-loops are allowed. A path is
    walked from its lowest-numbered end, a cycle from vertex 0 toward its
    smaller neighbour. Any other graph gives None.
    """
    n = g.n
    off = g._rows != g._cols
    rows, cols = g._rows[off], g._cols[off]
    degree = np.bincount(rows, minlength=n)
    if n < 2 or degree.max() > 2 or _components(n, rows, cols).any():
        return None
    # Stored entries run row by row, each row's columns ascending.
    neighbours = [row.tolist() for row in np.split(cols, np.cumsum(degree)[:-1])]
    ends = np.flatnonzero(degree == 1)
    cycle = ends.size == 0
    order, previous = [0 if cycle else int(ends[0])], -1
    for _ in range(n - 1):
        step = next(v for v in neighbours[order[-1]] if v != previous)
        previous = order[-1]
        order.append(step)
    return np.array(order), cycle


def _chain_modes(
    g: WeightedGraph, order: np.ndarray, cycle: bool, k: int, single: SpectralDecomposition
) -> tuple[np.ndarray, np.ndarray]:
    """Free-fermion modes of ``symmetric_power(g, k)`` on a chain that ``_chain_order`` walks as ``order``, ``cycle``.

    ``single`` is ``eigh(g)``. In chain order the single-walker matrix is g
    with its rows and columns taken in ``order``, so its eigenvectors are the
    rows ``order`` of those of ``single``, unless the wrap hop of a cycle
    takes the sign (-1)**(k - 1) = -1, at even k, which needs a solve of its
    own. Returns the compound C_k(Z) of those eigenvectors, its rows
    moved from ascending chain positions to the ascending labels of g's own
    numbering, its columns in ``_ascending(n, k)`` mode-tuple order; and
    each column's mode sum. In the identity order, a path along vertex
    order, the compound is that of ``single`` with its rows kept.
    """
    n = g.n
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    if cycle and k % 2 == 0:
        rows, cols = pos[g._rows], pos[g._cols]
        upper = rows <= cols
        rows, cols, weights = rows[upper], cols[upper], g._weights[upper]
        weights = np.where((rows == 0) & (cols == n - 1), -weights, weights)
        twisted = eigh(WeightedGraph._from_slots(n, rows, cols, weights))
        vectors, modes = twisted.eigenvectors, twisted.eigenvalues
    else:
        vectors, modes = single.eigenvectors[order], single.eigenvalues
    labels = _ascending(n, k)
    z = _compound(vectors, k)
    if (pos != np.arange(n)).any():
        z = z[_rank_ascending(np.sort(pos[labels], axis=1), n)]
    with np.errstate(over="ignore"):
        values = modes[labels].sum(axis=1)
    return z, values


def _chain_eigenbasis(
    g: WeightedGraph, k: int, single: SpectralDecomposition
) -> tuple[SpectralDecomposition, str] | None:
    """Eigenbasis of ``symmetric_power(g, k)`` from free-fermion modes, with a note naming the route, or None.

    ``single`` is ``eigh(g)``. None for a graph that is no chain
    (``_chain_order``) and past n / 2 walkers, where the middle levels of
    ``_compound`` would outgrow C(n, k)**2 entries; needs 1 <= k <= n.
    Eigenvalues ascend (stable sort), the columns carry the sign convention
    of SpectralDecomposition, and an eigenvalue past the float range raises
    ConvergenceError, as in ``eigh``.
    """
    chain = _chain_order(g)
    if chain is None or 2 * k > g.n:
        return None
    order, cycle = chain
    z, values = _chain_modes(g, order, cycle, k, single)
    note = "hard-core walk solved as free fermions along the " + ("cycle" if cycle else "path") + " order"
    if cycle:
        note += f", wrap hop signed (-1)^(k-1) = {(-1) ** (k - 1):+d}"
    if not np.isfinite(values).all():
        raise ConvergenceError("eigenvalues overflow a float")
    column = np.argsort(values, kind="stable")
    return SpectralDecomposition(values[column], _fix_signs(z[:, column])), note


def _ladder_steps(labels: np.ndarray) -> np.ndarray:
    """Ladder step ``d_L = sum(L) - k (k - 1) / 2`` of each row L of an ascending mode-tuple table.

    On the n-vertex weighted path, mode j has eigenvalue 2 j - (n - 1), so
    the tuple L has eigenvalue k (k - n) + 2 d_L exactly, and the Slater
    column of L has mirror parity (-1)**(k (n - 1) + d_L).
    """
    k = labels.shape[1]
    return labels.sum(axis=1) - k * (k - 1) // 2


def hc_spectrum(n: int, k: int) -> tuple[tuple[float, int], ...]:
    """Eigenvalues of the k-walker hard-core graph on the n-vertex weighted path.

    Returns (value, degeneracy) pairs ascending. Values form the integer
    ladder k(k - n) + 2*d for d = 0..k(n - k); the degeneracy of step d
    counts the ascending mode tuples at ladder step d (``_ladder_steps``).
    The size cap bounds their C(n, k) count.
    """
    if not isinstance(n, int) or not isinstance(k, int) or not 1 <= k <= n:
        raise InvalidSizeError(f"need 1 <= k <= n, got k={k!r}, n={n!r}")
    m = math.comb(n, k)
    _check_cap(m, f"hard-core spectrum has {m} mode tuples")
    counts = np.bincount(_ladder_steps(_ascending(n, k)), minlength=k * (n - k) + 1)
    return tuple((float(k * (k - n) + 2 * d), int(c)) for d, c in enumerate(counts))


def _projected_states(spec: SpectralDecomposition, table: np.ndarray, signed: SignedDiagonal) -> np.ndarray:
    """Projected Tonks-Girardeau state of every mode tuple, one column each.

    ``signed`` has one sign per row of ``table = _kept_table(n, k)``. Column
    c belongs to the c-th ascending mode tuple L: its Slater determinant
    det Z[x, L] / sqrt(k!) on every kept label x, times signs[x], summed over
    each cell of kept labels that sort to one ascending label and scaled by
    1/sqrt(k!). A kept label x in the cell of the ascending label X has
    det Z[x, L] = sgn(x) det Z[X, L], with sgn(x) the sign of the sort of x, so the cell
    sums to C_k(Z)[X, L] times the exact integer sum of signs[x] * sgn(x)
    over the cell. Two factors 1/sqrt(k!), one normalizing the Slater
    determinant and one scaling the projection, give 1/k!. The sum is k! in
    every cell exactly when the component signs match the sort parity.
    """
    n, k = spec.n, table.shape[1]
    cells = _rank_ascending(np.sort(table, axis=1), n)
    agree = np.bincount(cells, weights=_sort_signs(table) * signed.signs, minlength=math.comb(n, k))
    return _compound(spec.eigenvectors, k) * (agree / math.factorial(k))[:, None]


def _eigenbasis_deviation(g: WeightedGraph, z: np.ndarray, values: np.ndarray) -> float:
    """``max(|A Z - Z Lambda|, |Z^T Z - I|)``: how far ``z`` is from an orthonormal eigenbasis of ``g``."""
    residual = float(np.abs(g.adjacency @ z - z * values).max())
    gram = float(np.abs(z.T @ z - np.eye(z.shape[1])).max())
    return max(residual, gram)


def verify_corollary1(n: int, k: int) -> float:
    """Worst residual of the projected Tonks-Girardeau eigenbasis construction.

    Takes the Slater determinant of every mode tuple on every collision-free
    label of the k-fold power of the n-vertex weighted path, flips the signs
    of the components of the deleted graph, sums each indistinguishability
    cell, and measures both the eigen-residual against the ascending-label
    adjacency and the Gram deviation from orthonormality. Returns the larger
    of the two maxima. The determinants are read off the compound C_k(Z)
    (see ``_projected_states``); a component sign that disagrees with the
    sort parity shrinks a cell's sum below k! and fails the Gram check.
    Nothing is built on the n**k power labels: the deleted graph, its
    components and the cell sums live on the n!/(n-k)! kept labels, whose
    count the size cap bounds, and both graphs are edge lists.
    """
    if not isinstance(n, int) or not isinstance(k, int) or not 1 <= k <= n or n < 2:
        raise InvalidSizeError(f"need n >= 2 and 1 <= k <= n, got n={n!r}, k={k!r}")
    table = _kept_table(n, k)
    path = weighted_path(n)
    spec = eigh(path)
    signed = unit_antisymmetry(decompose_components(_kept_graph(path, table), n, k))
    states = _projected_states(spec, table, signed)
    energies = spec.eigenvalues[_ascending(n, k)].sum(axis=1)
    return _eigenbasis_deviation(symmetric_power(path, k), states, energies)
