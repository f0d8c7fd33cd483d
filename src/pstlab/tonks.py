"""Free-fermion eigenstates and their hard-core-boson images.

A k-particle free-fermion eigenstate on the power graph is a normalized
Slater determinant over k distinct single-particle modes. It vanishes on
every collision label, survives the hard-core deletion untouched, and after
multiplication by the component-sorting signs becomes symmetric under
walker exchange. Projecting onto the ascending-label graph then yields a
complete orthonormal eigenbasis of the hard-core adjacency; eigenvalues are
sums of the chosen single-particle eigenvalues. On an ascending label the
projected amplitude is the k x k determinant itself: the eigenbasis is the
k-th compound C_k(Z) of the n-vertex eigenvectors. ``_compound`` builds
every entry of it at once by Laplace expansion, so ``slater_decomposition``
and ``verify_corollary1`` take no determinant per entry; the latter lists
only the kept labels, never the n**k power. ``fermion_state`` keeps one
determinant per kept label, through ``_minors``, as the per-tuple reference.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSizeError, PreconditionError
from .graph_core import WeightedGraph, weighted_path
from .hardcore import (
    DeletionMask,
    SignedDiagonal,
    _ascending,
    _kept_graph,
    _kept_table,
    _label_rows,
    _sort_signs,
    decompose_components,
    deletion_mask,
    symmetric_power,
    unit_antisymmetry,
)
from .products import _digits
from .spectral import SpectralDecomposition, _fix_signs, eigh

_BASIS_TAGS = ("power", "kept", "identical")

# Entries gathered per block of rows by each Laplace level of ``_compound``.
_DET_BLOCK = 2**18


@dataclass(frozen=True)
class ModeTuple:
    """Strictly ascending single-particle mode indices, 0-based from the bottom."""

    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        modes = tuple(int(x) for x in self.modes)
        if len(modes) < 1:
            raise InvalidSizeError("mode tuple needs at least one mode")
        if modes[0] < 0 or any(a >= b for a, b in zip(modes, modes[1:])):
            raise PreconditionError(f"modes must be strictly ascending and non-negative, got {modes}")
        object.__setattr__(self, "modes", modes)

    @property
    def k(self) -> int:
        return len(self.modes)

    @property
    def a(self) -> int:
        """Mode-index sum; ranks the tuple within the eigenvalue ladder."""
        return sum(self.modes)


def all_mode_tuples(n: int, k: int) -> tuple[ModeTuple, ...]:
    """Every ascending choice of k modes out of n, lexicographic order."""
    if not isinstance(n, int) or not isinstance(k, int) or not 1 <= k <= n:
        raise InvalidSizeError(f"need 1 <= k <= n, got k={k!r}, n={n!r}")
    return tuple(ModeTuple(c) for c in itertools.combinations(range(n), k))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes over one of the three walker bases.

    ``basis`` is "power" (all n**k labels), "kept" (collision-free labels in
    kept order) or "identical" (ascending labels in lexicographic order).
    """

    amplitudes: np.ndarray
    basis: str
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.basis not in _BASIS_TAGS:
            raise PreconditionError(f"unknown basis tag {self.basis!r}")
        amps = np.array(self.amplitudes, dtype=float)
        expected = {
            "power": self.n**self.k,
            "kept": math.factorial(self.k) * math.comb(self.n, self.k),
            "identical": math.comb(self.n, self.k),
        }[self.basis]
        if amps.shape != (expected,):
            raise PreconditionError(
                f"basis {self.basis!r} for (n={self.n}, k={self.k}) needs {expected} amplitudes"
            )
        if not np.all(np.isfinite(amps)):
            raise PreconditionError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def fermion_state(spec: SpectralDecomposition, modes: ModeTuple) -> StateVector:
    """Normalized Slater determinant of the chosen modes over the power basis.

    Amplitude on label (x_1, ..., x_k) is det(Z[x_i, l_j]) / sqrt(k!), which
    is antisymmetric under walker exchange and exactly 0.0 whenever two
    walkers share a site.
    """
    n = spec.n
    k = modes.k
    if modes.modes[-1] >= n:
        raise PreconditionError(f"mode {modes.modes[-1]} outside 0..{n - 1}")
    kept = deletion_mask(n, k).kept_indices()
    dets = np.zeros(n**k)
    # A collision label has two equal minor rows, so its determinant is exactly zero and is not taken.
    dets[kept] = _minors(spec.eigenvectors, _digits(kept, n, k), np.broadcast_to(modes.modes, (kept.size, k)))
    return StateVector(dets / math.sqrt(math.factorial(k)), "power", n, k)


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
        tails = _label_rows(_ascending(n - k + j - 1, j - 1) + (k - j + 1), rows[:, 1:])
        minors = [_label_rows(_ascending(n, j - 1), np.delete(cols, c, axis=1)) for c in range(j)]
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


def tg_boson_state(fermion: StateVector, signed: SignedDiagonal, mask: DeletionMask) -> StateVector:
    """Restrict a fermion state to kept labels and flip the component signs.

    The result is symmetric under walker exchange: exchanging two walkers
    lands in another component whose sign flip cancels the determinant's.
    """
    if (fermion.n, fermion.k) != (mask.n, mask.k):
        raise PreconditionError("fermion state and mask were built for different (n, k)")
    if fermion.basis == "power":
        restricted = fermion.amplitudes[mask.keep]
    elif fermion.basis == "kept":
        restricted = fermion.amplitudes
    else:
        raise PreconditionError("tg_boson_state needs a power- or kept-basis state")
    if signed.signs.size != restricted.size:
        raise PreconditionError("sign vector does not match the kept basis")
    return StateVector(restricted * signed.signs, "kept", fermion.n, fermion.k)


def project_identical(state: StateVector, mask: DeletionMask) -> StateVector:
    """Apply the indistinguishability isometry: cell sums scaled by 1/sqrt(k!).

    Each cell's k! amplitudes are summed pairwise, so the rounding grows
    with log(k!) rather than k!.
    """
    if state.basis != "kept":
        raise PreconditionError("project_identical needs a kept-basis state")
    if (state.n, state.k) != (mask.n, mask.k):
        raise PreconditionError("state and mask were built for different (n, k)")
    grouped = state.amplitudes[mask._cell_order].reshape(math.comb(mask.n, mask.k), -1)
    out = grouped.sum(axis=1) / math.sqrt(math.factorial(mask.k))
    return StateVector(out, "identical", state.n, state.k)


def slater_decomposition(single: SpectralDecomposition, k: int) -> SpectralDecomposition:
    """Identical-walker eigenbasis on ascending labels from the single-walker one.

    ``single`` decomposes an n-vertex path-family graph. By the
    Tonks-Girardeau construction (Corollary 1), the ascending mode tuple L
    gives the eigenvalue sum(lambda[L]) and the eigenvector whose entry on the
    ascending label x is det Z[x, L]: the eigenvector matrix is the k-th
    compound C_k(Z), which is orthogonal because Z is. Columns are sorted by
    eigenvalue with a stable sort and carry the sign convention of
    SpectralDecomposition.
    """
    n = single.n
    if not isinstance(k, int) or not 1 <= k <= n:
        raise InvalidSizeError(f"need 1 <= k <= {n}, got k={k!r}")
    # Ascending k-subsets of range(n): the site labels and the mode tuples alike.
    subsets = _ascending(n, k)
    values = single.eigenvalues[subsets].sum(axis=1)
    order = np.argsort(values, kind="stable")
    vecs = _compound(single.eigenvectors, k)[:, order]
    # Rebinding frees the unsigned matrix before SpectralDecomposition copies.
    vecs = _fix_signs(vecs)
    return SpectralDecomposition(values[order], vecs)


def hc_spectrum(n: int, k: int) -> tuple[tuple[float, int], ...]:
    """Eigenvalues of the k-walker hard-core graph on the n-vertex weighted path.

    Returns (value, degeneracy) pairs ascending. Values form the integer
    ladder k(k - n) + 2*d for d = 0..k(n - k); the degeneracy of step d
    counts the ascending mode tuples whose index sum exceeds the minimum
    possible sum by d.
    """
    if not isinstance(n, int) or not isinstance(k, int) or not 1 <= k <= n:
        raise InvalidSizeError(f"need 1 <= k <= n, got k={k!r}, n={n!r}")
    counts = Counter(sum(c) for c in itertools.combinations(range(n), k))
    base = k * (k - 1) // 2
    ladder = []
    for d in range(k * (n - k) + 1):
        ladder.append((float(k * (k - n) + 2 * d), counts[base + d]))
    return tuple(ladder)


def parity_sign_rule(modes: ModeTuple, k: int) -> int:
    """Sign (-1)**(odd-mode count + floor(k/2)) attached to a mode tuple.

    Equals +1 on the bottom tuple (0, 1, ..., k-1) and flips whenever the
    index sum changes parity, so it alternates along the eigenvalue ladder.
    """
    if modes.k != k:
        raise PreconditionError(f"mode tuple has k={modes.k}, expected {k}")
    odd = sum(1 for m in modes.modes if m % 2)
    return -1 if (odd + k // 2) % 2 else 1


def _projected_states(spec: SpectralDecomposition, table: np.ndarray, signed: SignedDiagonal) -> np.ndarray:
    """Projected Tonks-Girardeau state of every mode tuple, one column each.

    ``signed`` has one sign per row of ``table = _kept_table(n, k)``. With
    ``mask = deletion_mask(n, k)``, column c equals ``project_identical(
    tg_boson_state(fermion_state(spec, all_mode_tuples(n, k)[c]), signed,
    mask), mask).amplitudes``. A kept
    label x in the cell of the ascending label X has det Z[x, L] =
    sgn(x) det Z[X, L], with sgn(x) the sign of the sort of x, so the cell
    sums to C_k(Z)[X, L] times the exact integer sum of signs[x] * sgn(x)
    over the cell. Two factors 1/sqrt(k!), one normalizing the Slater
    determinant and one scaling the projection, give 1/k!. The sum is k! in
    every cell exactly when the component signs match the sort parity.
    """
    n, k = spec.n, table.shape[1]
    cells = _label_rows(_ascending(n, k), np.sort(table, axis=1))
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
