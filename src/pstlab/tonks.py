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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSizeError
from .graph_core import WeightedGraph, _check_cap, weighted_path
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
from .spectral import SpectralDecomposition, eigh

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
