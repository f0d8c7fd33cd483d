"""Symmetric eigendecomposition and continuous-time walk dynamics.

The eigensolver is the package's own: Householder reduction to tridiagonal
form, then implicit-shift QL on the tridiagonal, with the eigenvectors
accumulated through both stages. The QL recurrence records its plane
rotations and applies them to the eigenvector rows in wavefronts: the
rotation on rows (i, i + 1) of the s-th sweep runs in wave 2 s + (n - 1 - i),
so rotations that share a row keep their order, and each wave updates its
disjoint row pairs at once with the same elementwise formula as one rotation
at a time. The bytes are those of the rotation-by-rotation loop; flushing the
record every few thousand rotations bounds its memory and changes no byte.
It is written with elementwise numpy products and reductions only, never a
BLAS call, so its output bytes do not depend on the BLAS library or its
thread count; eigenvector signs follow one fixed convention (see
SpectralDecomposition). Propagators are assembled from
the decomposition as U(t) = Z exp(-i t Lambda) Z^T, so unitarity holds to
the accuracy of the decomposition itself and no matrix exponential routine
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .graph_core import WeightedGraph, _check_vertex

PST_TOL = 1e-9

# QL steps allowed per eigenvalue (LAPACK's dsteqr uses the same budget) and
# the machine epsilon that scales the deflation threshold.
_QL_ITERATION_CAP = 30
_EPS = float(np.finfo(float).eps)

# Plane rotations recorded before _ql_implicit applies them to the eigenvector
# rows: bounds the record's memory, and the flush point changes no byte.
_ROTATION_BLOCK = 4096


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


class PstPair(NamedTuple):
    u: int
    v: int
    phase: complex


def _tridiagonalize(t: np.ndarray) -> np.ndarray:
    """Householder reduction of the symmetric ``t`` in place to tridiagonal form.

    On return the diagonal and first subdiagonal of ``t`` hold the tridiagonal
    matrix ``T`` (entries further from the diagonal are stale), and the
    returned orthogonal ``Q`` satisfies ``A = Q T Q^T`` (Golub and Van Loan,
    Matrix Computations, Algorithm 8.3.1). A column that is already zero below
    its subdiagonal gets no reflector, so tridiagonal input passes through
    bit for bit.
    """
    n = t.shape[0]
    reflectors = []
    for k in range(n - 2):
        x = t[k + 1 :, k]
        if not x[1:].any():
            continue
        alpha = -math.copysign(math.sqrt(float((x * x).sum())), x[0])
        v = x.copy()
        v[0] -= alpha
        beta = 2.0 / float((v * v).sum())
        sub = t[k + 1 :, k + 1 :]
        p = beta * (sub * v).sum(axis=1)
        w = p - (0.5 * beta * float((p * v).sum())) * v
        # The two outer products are added before the subtraction so that the
        # block stays exactly symmetric.
        sub -= v[:, None] * w[None, :] + w[:, None] * v[None, :]
        t[k + 1, k] = alpha
        reflectors.append((k + 1, v, beta))
    q = np.eye(n)
    for j, v, beta in reversed(reflectors):
        block = q[j:, j:]
        block -= (beta * v)[:, None] * (v[:, None] * block).sum(axis=0)[None, :]
    return q


def _ql_implicit(d: list[float], e: list[float], zt: np.ndarray, tol: float) -> None:
    """Diagonalize the tridiagonal (d, e) in place by implicit-shift QL.

    ``e[i]`` couples ``d[i]`` and ``d[i + 1]`` and counts as zero once
    ``|e[i]| <= tol``; on return ``d`` holds the eigenvalues. Every plane
    rotation is also applied to rows ``i`` and ``i + 1`` of ``zt``, so a
    ``zt`` that starts as ``Q^T`` ends with the eigenvectors of ``Q T Q^T`` as
    its rows (``tqli`` in Numerical Recipes, with Wilkinson's shift). Each
    eigenvalue gets at most ``_QL_ITERATION_CAP`` QL steps before
    ConvergenceError.

    The scalar recurrence on ``(d, e)`` does not touch ``zt``: it records each
    sweep's top row and its ``(c, s)`` values, and ``_rotate_rows`` applies
    them in waves. It flushes once ``_ROTATION_BLOCK`` rotations are recorded,
    always between two sweeps, and at the end; every row still sees its
    rotations in recorded order, so the flushes do not change any byte.
    """
    n = len(d)
    e.append(0.0)
    sweeps: list[tuple[int, int]] = []  # (top row, rotation count) of each recorded sweep
    cs: list[float] = []
    ss: list[float] = []
    for lo in range(n):
        steps = 0
        while True:
            m = lo
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == lo:
                break
            if steps == _QL_ITERATION_CAP:
                raise ConvergenceError(
                    f"implicit QL left subdiagonal {abs(e[lo]):.3e} at index {lo} after "
                    f"{_QL_ITERATION_CAP} steps"
                )
            steps += 1
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            split = False
            recorded = len(cs)
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # The rotation would divide by zero: deflate at i + 1 and
                    # restart the search from lo.
                    d[i + 1] -= p
                    e[m] = 0.0
                    split = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                cs.append(c)
                ss.append(s)
            sweeps.append((m - 1, len(cs) - recorded))
            if len(cs) >= _ROTATION_BLOCK:
                _rotate_rows(zt, sweeps, cs, ss)
                sweeps, cs, ss = [], [], []
            if split:
                continue
            d[lo] -= p
            e[lo] = g
            e[m] = 0.0
    _rotate_rows(zt, sweeps, cs, ss)


def _rotate_rows(zt: np.ndarray, sweeps: list[tuple[int, int]], cs: list[float], ss: list[float]) -> None:
    """Apply recorded QL sweeps to the rows of ``zt``, one wave of row pairs at a time.

    Sweep ``k`` of ``sweeps`` is ``(top, count)``: its rotations act on rows
    ``(i, i + 1)`` for ``i = top, top - 1, ...``, and their ``(c, s)`` values
    follow each other in ``cs`` and ``ss``. The rotation on rows ``(i, i + 1)``
    of sweep ``k`` runs in wave ``2 k + (n - 1 - i)`` (the wavefront order of
    Van Zee, van de Geijn and Quintana-Orti, ACM TOMS 40(3):18, 2014). Two
    rotations that share a row fall in different waves, in recorded order, and
    two rotations of one wave are at least two rows apart, so every row gets
    the same updates in the same order as rotation by rotation. Each update is
    ``(c z_i + z_i+1 (-s), c z_i+1 + z_i s)``, equal in IEEE arithmetic to
    ``c z_i + (-z_i+1) s``, so the rows end with the same bytes. A wave is one
    gather of its row pairs, two products, one sum and one scatter.
    """
    if not cs:
        return
    tops, counts = np.array(sweeps, dtype=np.intp).T
    ends = np.cumsum(counts)
    rows = np.repeat(tops + ends - counts, counts) - np.arange(ends[-1])
    # The wave number less its constant n - 1, which changes no order.
    wave = np.repeat(2 * np.arange(counts.size), counts) - rows
    order = np.argsort(wave, kind="stable")
    pairs = rows[order, None] + np.array([0, 1])
    c = np.array(cs)[order, None, None]
    s = np.array(ss)[order]
    signed_s = np.stack([-s, s], axis=1)[:, :, None]
    cuts = (np.flatnonzero(np.diff(wave[order])) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(cs)]):
        pair = pairs[lo:hi]
        z = zt[pair]
        turned = z[:, ::-1] * signed_s[lo:hi]
        z *= c[lo:hi]
        z += turned
        zt[pair] = z


def eigh_matrix(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder tridiagonalization plus implicit-shift QL for a symmetric matrix.

    Returns ascending eigenvalues (stable order) and the matching orthonormal
    eigenvector columns, without any sign normalization. The input must be
    symmetric; that is not checked. It is first scaled by a power of two,
    which is exact, so that no sum of squares can overflow. A tridiagonal
    input skips the Householder stage entirely. The QL plane rotations reach
    the eigenvectors in wavefront batches of disjoint row pairs, flushed
    every ``_ROTATION_BLOCK`` rotations (see ``_ql_implicit``); each row gets
    the same updates in the same order as rotation by rotation, so the bytes
    are those of the one-at-a-time loop.

    Only elementwise products and numpy reductions are used, never a BLAS
    call: repeated calls return identical bytes, and the bytes depend on the
    input, the numpy build and the CPU, not on the BLAS library or its thread
    count. Residual ``|A Z - Z Lambda|`` and orthogonality ``|Z^T Z - I|`` are
    a small multiple of ``n * eps * ||A||_2`` (backward stability; the tests
    hold them to ``10 n eps ||A||_2``). Raises ConvergenceError for a
    non-finite input and when one eigenvalue needs more than 30 QL steps.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ConvergenceError("eigensolver input has non-finite entries")
    scale = math.ldexp(1.0, math.frexp(float(np.abs(a).max(initial=0.0)))[1])
    t = a / scale
    q = _tridiagonalize(t)
    diag, off = np.diag(t), np.diag(t, -1)
    # Deflating at eps * ||T||_inf perturbs T by at most that much, which keeps
    # the solve backward stable even inside clusters of zero eigenvalues, where
    # a test relative to the neighbouring diagonal entries never fires.
    rows = np.abs(diag)
    rows[:-1] += np.abs(off)
    rows[1:] += np.abs(off)
    d = diag.tolist()
    zt = np.ascontiguousarray(q.T)
    _ql_implicit(d, off.tolist(), zt, _EPS * float(rows.max(initial=0.0)))
    vals = np.array(d) * scale
    order = np.argsort(vals, kind="stable")
    return vals[order], zt[order].T


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


def evolve(spec: SpectralDecomposition, t: float) -> np.ndarray:
    """Propagator U(t) = exp(-i t A) from a spectral decomposition, as a read-only complex array."""
    t = _check_time(t)
    z = spec.eigenvectors
    angles = t * spec.eigenvalues
    # Two real products, since exp(-i t lambda) = cos(t lambda) - i sin(t lambda): half
    # the flops of one complex product, and no complex copies of z or z^T.
    u = np.empty((spec.n, spec.n), dtype=complex)
    u.real = (z * np.cos(angles)) @ z.T
    u.imag = (z * -np.sin(angles)) @ z.T
    u.flags.writeable = False
    return u


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
    u_mat = evolve(spec, t)
    # Entry (u, v) of the transpose is the amplitude from u to v.
    sources, targets = np.nonzero(np.triu(np.abs(u_mat.T) >= 1.0 - tol, k=1))
    return tuple(PstPair(int(u) + 1, int(v) + 1, complex(u_mat[v, u])) for u, v in zip(sources, targets))


def is_periodic(spec: SpectralDecomposition, t: float, tol: float = PST_TOL) -> complex | None:
    """Global phase gamma with U(t) = gamma * I within tol entrywise, or None."""
    tol = _check_tol(tol)
    u_mat = evolve(spec, t)
    gamma = u_mat[0, 0]
    dev = np.abs(u_mat - gamma * np.eye(spec.n)).max()
    if dev <= tol:
        return complex(gamma)
    return None
