"""Symmetric eigendecomposition and continuous-time walk dynamics.

The eigensolver is a cyclic Jacobi iteration. It is slower than a packaged
LAPACK call but fully deterministic: the same rotation sequence runs on
every platform, so eigenvector signs, report bytes and downstream phases
never depend on the linear-algebra backend. Propagators are assembled from
the decomposition as U(t) = Z exp(-i t Lambda) Z^T, so unitarity holds to
the accuracy of the decomposition itself and no matrix exponential routine
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .graph_core import WeightedGraph, _check_vertex

PST_TOL = 1e-9

# Jacobi termination: largest off-diagonal magnitude relative to the Frobenius
# norm of the input, and a hard sweep budget.
_OFFDIAG_FACTOR = 1e-13
_SWEEP_CAP = 100

_SNAP_DENOMINATOR = 10**6

# A convergent p/q only counts as an explanation of a ratio when its error is
# far below the ~1/q**2 floor that every irrational attains; see ratio_condition.
_RAZOR = 1e-3


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues with a matching orthonormal eigenvector matrix.

    Column j of ``eigenvectors`` pairs with ``eigenvalues[j]``. Every column
    follows one deterministic sign convention: its entry of largest magnitude
    (ties resolved toward the lowest index) is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = np.array(self.eigenvectors, dtype=float)
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise PreconditionError("eigenvalue and eigenvector shapes do not match")
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary walk matrix U(t) = exp(-i t A) together with the time it belongs to."""

    matrix: np.ndarray
    time: float

    def __post_init__(self) -> None:
        u = np.array(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise PreconditionError("propagator matrix must be square")
        u.flags.writeable = False
        object.__setattr__(self, "matrix", u)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


class PstPair(NamedTuple):
    u: int
    v: int
    phase: complex


@dataclass(frozen=True)
class RatioConditionResult:
    """Outcome of the eigenvalue-difference rationality test.

    ``heuristic`` marks a positive answer that leaned on snap errors within a
    decade of the tolerance, where the finite-denominator search starts to
    lose its resolving power.
    """

    holds: bool
    heuristic: bool
    max_snap_error: float
    denominator_lcm: int

    def __bool__(self) -> bool:
        return self.holds


def _max_offdiag(a: np.ndarray) -> float:
    m = np.abs(a.copy())
    np.fill_diagonal(m, 0.0)
    return float(m.max())


def eigh_matrix(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns ascending eigenvalues and the matching orthonormal eigenvector
    columns, without any sign normalization. Raises ConvergenceError if the
    largest off-diagonal magnitude is still above 1e-13 times the Frobenius
    norm after 100 sweeps.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    work = np.array(a)
    vecs = np.eye(n)
    scale = float(np.linalg.norm(work))
    if scale == 0.0 or n == 1:
        vals = np.diag(work).copy()
        order = np.argsort(vals, kind="stable")
        return vals[order], vecs[:, order]
    threshold = _OFFDIAG_FACTOR * scale
    # Rotating entries well below the target threshold wastes sweeps without
    # moving the max-offdiagonal test, so skip them inside a sweep.
    rotate_floor = threshold / (4.0 * n)
    converged = False
    for _ in range(_SWEEP_CAP):
        if _max_offdiag(work) <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= rotate_floor:
                    continue
                app = work[p, p]
                aqq = work[q, q]
                theta = 0.5 * (aqq - app) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                new_p = c * col_p - s * col_q
                new_q = s * col_p + c * col_q
                work[:, p] = new_p
                work[:, q] = new_q
                work[p, :] = new_p
                work[q, :] = new_q
                work[p, p] = app - t * apq
                work[q, q] = aqq + t * apq
                work[p, q] = 0.0
                work[q, p] = 0.0
                vec_p = vecs[:, p].copy()
                vec_q = vecs[:, q].copy()
                vecs[:, p] = c * vec_p - s * vec_q
                vecs[:, q] = s * vec_p + c * vec_q
    if not converged and _max_offdiag(work) > threshold:
        raise ConvergenceError(
            f"jacobi iteration left off-diagonal {_max_offdiag(work):.3e} above "
            f"{threshold:.3e} after {_SWEEP_CAP} sweeps"
        )
    vals = np.diag(work).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    cols = np.arange(vecs.shape[1])
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, cols])
    signs[signs == 0.0] = 1.0
    return vecs * signs


def eigh(g: WeightedGraph) -> SpectralDecomposition:
    """Spectral decomposition of a graph's adjacency matrix."""
    vals, vecs = eigh_matrix(g.adjacency)
    return SpectralDecomposition(vals, _fix_signs(vecs))


def _check_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise PreconditionError(f"time must be finite, got {t!r}")
    return t


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not 0.0 < tol < 0.1:
        raise PreconditionError(f"tolerance must lie in (0, 0.1), got {tol!r}")
    return tol


def evolve(spec: SpectralDecomposition, t: float) -> Propagator:
    """Propagator U(t) assembled from a spectral decomposition."""
    t = _check_time(t)
    phases = np.exp(-1j * t * spec.eigenvalues)
    z = spec.eigenvectors
    return Propagator((z * phases) @ z.T, t)


def transfer_amplitude(spec: SpectralDecomposition, u: int, v: int, t: float) -> complex:
    """Walk amplitude <v| U(t) |u> between 1-based vertices."""
    t = _check_time(t)
    _check_vertex(spec.n, u)
    _check_vertex(spec.n, v)
    phases = np.exp(-1j * t * spec.eigenvalues)
    weights = spec.eigenvectors[v - 1] * spec.eigenvectors[u - 1]
    return complex(weights @ phases)


def find_pst_pairs(spec: SpectralDecomposition, t: float, tol: float = PST_TOL) -> tuple[PstPair, ...]:
    """Vertex pairs u < v whose transfer amplitude at time t has modulus >= 1 - tol.

    The returned phase is the full complex amplitude. Pairs are ordered by
    (u, v). An empty result means no perfect transfer happens at this time.
    """
    tol = _check_tol(tol)
    u_mat = evolve(spec, t).matrix
    pairs = []
    for u in range(spec.n - 1):
        for v in range(u + 1, spec.n):
            amp = u_mat[v, u]
            if abs(amp) >= 1.0 - tol:
                pairs.append(PstPair(u + 1, v + 1, complex(amp)))
    return tuple(pairs)


def is_periodic(spec: SpectralDecomposition, t: float, tol: float = PST_TOL) -> complex | None:
    """Global phase gamma with U(t) = gamma * I within tol entrywise, or None."""
    tol = _check_tol(tol)
    u_mat = evolve(spec, t).matrix
    gamma = u_mat[0, 0]
    dev = np.abs(u_mat - gamma * np.eye(spec.n)).max()
    if dev <= tol:
        return complex(gamma)
    return None


def _snap(ratio: float, tol: float) -> tuple[Fraction | None, float]:
    """Smallest-denominator continued-fraction convergent of ratio within tol.

    Walks the convergents in order of increasing denominator and returns the
    first one
    whose error is below tol, so a simple fraction always wins over a sharper
    but contrived one. Returns (None, best_error) when no convergent with
    denominator <= 10**6 lands within tol.
    """
    exact = Fraction(ratio)
    h_prev, h_curr = 0, 1  # convergent numerator seeds p_{-2}, p_{-1}
    k_prev, k_curr = 1, 0  # denominator seeds q_{-2}, q_{-1}
    rest = exact
    best_err = math.inf
    while True:
        a = math.floor(rest)
        h_prev, h_curr = h_curr, a * h_curr + h_prev
        k_prev, k_curr = k_curr, a * k_curr + k_prev
        if k_curr > _SNAP_DENOMINATOR:
            return None, best_err
        err = float(abs(exact - Fraction(h_curr, k_curr)))
        best_err = min(best_err, err)
        if err < tol:
            return Fraction(h_curr, k_curr), err
        frac_part = rest - a
        if frac_part == 0:
            return None, best_err
        rest = 1 / frac_part


def ratio_condition(eigenvalues: np.ndarray, tol: float = PST_TOL) -> RatioConditionResult:
    """Decide whether all pairwise eigenvalue differences are rationally related.

    Differences are compared through their ratios to the largest difference.
    Each ratio is snapped to a continued-fraction convergent with denominator
    at most 10**6; the condition holds when every snap error is below tol,
    the convergent beats the generic-approximation floor (error times q**2
    must be small, since any irrational admits error ~ 1/q**2), and the
    snapped denominators share an lcm within the same bound. Positive answers
    whose worst snap error sits within a decade of tol are flagged heuristic.
    """
    tol = _check_tol(tol)
    vals = np.sort(np.asarray(eigenvalues, dtype=float))
    if vals.size < 2:
        raise PreconditionError("ratio_condition needs at least two eigenvalues")
    reps = [float(vals[0])]
    for x in vals[1:]:
        if float(x) - reps[-1] > tol:
            reps.append(float(x))
    if len(reps) < 2:
        raise PreconditionError("ratio_condition needs at least two distinct eigenvalues")
    diffs = [reps[j] - reps[i] for i in range(len(reps)) for j in range(i + 1, len(reps))]
    d_ref = max(diffs)
    max_err = 0.0
    lcm = 1
    holds = True
    for d in diffs:
        frac, err = _snap(d / d_ref, tol)
        max_err = max(max_err, err)
        if frac is None or err * frac.denominator**2 > _RAZOR:
            holds = False
            continue
        lcm = math.lcm(lcm, frac.denominator)
    if lcm > _SNAP_DENOMINATOR:
        holds = False
    heuristic = holds and max_err >= tol / 10.0
    return RatioConditionResult(holds, heuristic, float(max_err), int(lcm))
