"""Symmetric eigendecomposition and continuous-time walk dynamics.

The eigensolver is the package's own, with three routes. ``eigh_matrix`` is
the general dense one: Householder reduction to tridiagonal form, then
implicit-shift QL on the tridiagonal, with the eigenvectors accumulated
through both stages. The QL recurrence records its plane rotations and
applies them to the eigenvector rows in wavefronts: the rotation on rows
(i, i + 1) of the s-th sweep runs in wave 2 s + (n - 1 - i), so rotations
that share a row keep their order. A wave's rotations on rows i, i + 2, ...,
i + 2K - 2 tile the contiguous rows i .. i + 2K - 1, which are rotated in
place as one block with the same elementwise formula as one rotation at a
time. The bytes are those of the rotation-by-rotation loop; flushing the
record every few thousand rotations bounds its memory and changes no byte.

``eigh`` of exactly ``weighted_path(n)`` solves nothing: its eigenpairs
come in closed form (``_eigh_weighted_path``). ``eigh`` of any other
bipartite graph (no odd cycle, no self-loop) with at least
``_BIPARTITE_MIN`` vertices takes the half-size route. Its adjacency is
``[[0, B], [B^T, 0]]`` once the larger side comes first, and the singular
value decomposition of the half-size block ``B`` gives every eigenpair:
Householder bidiagonalization of ``B``, then shifted implicit QR on the
bidiagonal (Golub and Kahan), whose rotations reach the singular vectors
through the same wavefront batches. Every other graph, and every matrix
given to ``eigh_matrix``, takes the dense route.

Every route is written with elementwise numpy products, reductions and
``np.einsum`` without ``optimize``, never a BLAS call, so their output bytes
do not depend on the BLAS library or its thread count; eigenvector signs
follow one fixed convention (see SpectralDecomposition). Propagators are
assembled from the decomposition as U(t) = Z exp(-i t Lambda) Z^T, so
unitarity holds to the accuracy of the decomposition itself and no matrix
exponential routine is involved. The probe's scan (_pair_scan) takes the
same amplitudes pair by pair, in blocks at every time at once, and skips the
pairs that a time-free bound rules out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .graph_core import WeightedGraph, _check_vertex, _components

PST_TOL = 1e-9

# QL steps allowed per eigenvalue (LAPACK's dsteqr uses the same budget) and
# the machine epsilon that scales the deflation threshold.
_QL_ITERATION_CAP = 30
_EPS = float(np.finfo(float).eps)

# Plane rotations recorded before _ql_implicit applies them to the eigenvector
# rows: bounds the record's memory, and the flush point changes no byte.
_ROTATION_BLOCK = 4096

# _reflector leaves a column whose squares sum below this (see there).
_TINY_COLUMN = 2.0**-968

# eigh takes the bipartite route (_eigh_bipartite) from this many vertices on.
# Below it a weighted or simple path, whose tridiagonal adjacency skips the
# Householder stage of eigh_matrix, solves faster there: medians of 61
# alternating calls put the bipartite route at 1.5x at 8 vertices, 1.0x at
# 32 and 0.95x at 36; a bipartite graph with a 30% dense block wins from 8.
_BIPARTITE_MIN = 36

# Largest weighted path eigh takes in closed form: near n = 1030 the Krawtchouk values outgrow a float.
_KRAWTCHOUK_MAX = 1024

# _pair_scan prunes pairs whose bound lies this many n eps below its target (see there).
_PAIR_SLACK = 64


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


def _reflector(x: np.ndarray) -> tuple[float, np.ndarray, float] | None:
    """Householder reflector ``I - beta v v^T`` that maps ``x`` to ``alpha e_1``, as ``(alpha, v, beta)``.

    Returns None when ``x`` is already zero below its first entry, and when
    its squares sum below ``_TINY_COLUMN``: that reflector's ``beta`` would
    overflow, and leaving the column changes the matrix by less than
    2**-484, far under the solver's backward error for a matrix scaled to
    norm about 1. The dot products are ``np.einsum`` calls, which run no BLAS.
    """
    if not x[1:].any():
        return None
    norm2 = float(np.einsum("i,i", x, x))
    if norm2 < _TINY_COLUMN:
        return None
    alpha = -math.copysign(math.sqrt(norm2), x[0])
    v = x.copy()
    v[0] -= alpha
    return alpha, v, 2.0 / float(np.einsum("i,i", v, v))


def _accumulate(n: int, reflectors: list[tuple[int, np.ndarray, float]]) -> np.ndarray:
    """The ``n x n`` product of the reflectors ``(j, v, beta)``, each acting on indices ``j:``, in list order.

    Backward accumulation: the last reflector is applied first, to the
    identity, so each one touches only its trailing block.
    """
    q = np.eye(n)
    for j, v, beta in reversed(reflectors):
        block = q[j:, j:]
        block -= np.multiply.outer(beta * v, np.einsum("i,ij->j", v, block))
    return q


def _tridiagonalize(t: np.ndarray) -> np.ndarray:
    """Householder reduction of the symmetric ``t`` in place to tridiagonal form.

    On return the diagonal and first subdiagonal of ``t`` hold the tridiagonal
    matrix ``T`` (entries further from the diagonal are stale), and the
    returned orthogonal ``Q`` satisfies ``A = Q T Q^T`` (Golub and Van Loan,
    Matrix Computations, Algorithm 8.3.1). A column that ``_reflector``
    leaves gets no reflector, so tridiagonal input passes through bit for
    bit. The product of the trailing block with ``v`` and the rows ``v^T Q``
    of the accumulation are ``np.einsum`` calls, which run no BLAS and form
    no elementwise temporary of the block.
    """
    n = t.shape[0]
    reflectors = []
    for k in range(n - 2):
        reflector = _reflector(t[k + 1 :, k])
        if reflector is None:
            continue
        alpha, v, beta = reflector
        sub = t[k + 1 :, k + 1 :]
        p = beta * np.einsum("ij,j->i", sub, v)
        w = p - (0.5 * beta * float(np.einsum("i,i", p, v))) * v
        # v w^T plus its own transpose is v w^T + w v^T, added before the
        # subtraction so that the block stays exactly symmetric.
        vw = np.multiply.outer(v, w)
        sub -= vw + vw.T
        t[k + 1, k] = alpha
        reflectors.append((k + 1, v, beta))
    return _accumulate(n, reflectors)


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
    ``c z_i + (-z_i+1) s``, so the rows end with the same bytes.

    In that order the rotations of one wave on rows ``i, i + 2, ..., i + 2K -
    2`` follow each other, and their row pairs tile the contiguous rows ``i ..
    i + 2K - 1``. The record is cut wherever the next row is not the previous
    one plus 2, and each run updates the view ``zt[i : i + 2K]`` reshaped to
    ``(K, 2, m)`` in place: one product into a temporary, one in-place product
    and one in-place sum, with no gather or scatter. A run is part of one
    wave, so every cut keeps the bytes. The reshape is a view only for a
    C-contiguous ``zt``, and any other raises PreconditionError rather than
    rotating a copy.
    """
    if not zt.flags.c_contiguous:
        raise PreconditionError("_rotate_rows needs a C-contiguous zt: a reshaped copy would drop the update")
    if not cs:
        return
    tops, counts = np.array(sweeps, dtype=np.intp).T
    ends = np.cumsum(counts)
    rows = np.repeat(tops + ends - counts, counts) - np.arange(ends[-1])
    # The wave number less its constant n - 1, which changes no order.
    wave = np.repeat(2 * np.arange(counts.size), counts) - rows
    order = np.argsort(wave, kind="stable")
    rows = rows[order]
    c = np.array(cs)[order, None, None]
    s = np.array(ss)[order]
    signed_s = np.stack([-s, s], axis=1)[:, :, None]
    # Rows two apart in this order belong to one wave (the rows of two
    # neighbouring waves differ in parity), so a run's pairs are disjoint.
    cuts = (np.flatnonzero(np.diff(rows) != 2) + 1).tolist()
    width = zt.shape[1]
    for top, lo, hi in zip(rows[[0, *cuts]].tolist(), [0, *cuts], [*cuts, len(cs)]):
        block = zt[top : top + 2 * (hi - lo)].reshape(hi - lo, 2, width)
        turned = block[:, ::-1] * signed_s[lo:hi]
        block *= c[lo:hi]
        block += turned


def eigh_matrix(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder tridiagonalization plus implicit-shift QL for a symmetric matrix.

    The general dense route, taken by ``eigh`` for every graph that is not
    bipartite or is smaller than ``_BIPARTITE_MIN``. Returns ascending
    eigenvalues (stable order) and the matching orthonormal eigenvector
    columns, without any sign normalization. The input must be
    symmetric; that is not checked. It is first scaled by a power of two,
    which is exact, so that no sum of squares can overflow. A tridiagonal
    input skips the Householder stage entirely. The QL plane rotations reach
    the eigenvectors in wavefront batches, each applied in place to runs of
    contiguous rows, flushed every ``_ROTATION_BLOCK`` rotations (see
    ``_ql_implicit`` and ``_rotate_rows``); each row gets the same updates in
    the same order as rotation by rotation, so the bytes are those of the
    one-at-a-time loop.

    Only elementwise products, numpy reductions and ``np.einsum`` without
    ``optimize`` are used, never a BLAS call: repeated calls return identical
    bytes, and the bytes depend on the input, the numpy build and the CPU,
    not on the BLAS library or its thread count. Residual ``|A Z - Z
    Lambda|`` and orthogonality ``|Z^T Z - I|`` are a small multiple of ``n *
    eps * ||A||_2`` (backward stability; the tests hold them to ``10 n eps
    ||A||_2``). Raises ConvergenceError for a non-finite input, when one
    eigenvalue needs more than 30 QL steps and when an eigenvalue overflows a
    float.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ConvergenceError("eigensolver input has non-finite entries")
    # ldexp keeps the scaling exact where 2**exponent itself is no float.
    exponent = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    t = np.ldexp(a, -exponent)
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
    with np.errstate(over="ignore"):
        vals = np.ldexp(np.array(d), exponent)
    if not np.isfinite(vals).all():
        raise ConvergenceError("eigenvalues overflow a float")
    order = np.argsort(vals, kind="stable")
    return vals[order], zt[order].T


def _bidiagonalize(b: np.ndarray) -> tuple[list[float], list[float], np.ndarray, np.ndarray]:
    """Householder reduction of the ``p x q`` matrix ``b`` (``p >= q``) in place to upper bidiagonal form.

    Returns the diagonal ``d`` and superdiagonal ``e`` of the bidiagonal
    ``Bd`` and the orthogonal ``U`` (``p x p``) and ``V`` (``q x q``) with
    ``b = U [Bd; 0] V^T`` (Golub and Kahan, SIAM J. Numer. Anal. B 2:205,
    1965; Golub and Van Loan, Algorithm 5.4.2). Column ``k`` gets a left
    reflector on rows ``k:``, then row ``k`` a right reflector on columns
    ``k + 1:``; ``_reflector`` leaves out one that is not needed, so a ``b``
    that is already bidiagonal keeps its entries. The block updates are
    ``np.einsum`` products; entries of ``b`` outside the trailing block are
    left stale.
    """
    p, q = b.shape
    d: list[float] = []
    e: list[float] = []
    left: list[tuple[int, np.ndarray, float]] = []
    right: list[tuple[int, np.ndarray, float]] = []
    for k in range(q):
        x = b[k:, k]
        reflector = _reflector(x)
        if reflector is None:
            d.append(float(x[0]))
        else:
            alpha, v, beta = reflector
            block = b[k:, k + 1 :]
            block -= np.multiply.outer(beta * v, np.einsum("i,ij->j", v, block))
            d.append(alpha)
            left.append((k, v, beta))
        if k == q - 1:
            break
        x = b[k, k + 1 :]
        reflector = _reflector(x)
        if reflector is None:
            e.append(float(x[0]))
        else:
            alpha, v, beta = reflector
            block = b[k + 1 :, k + 1 :]
            block -= np.multiply.outer(np.einsum("ij,j->i", block, v), beta * v)
            e.append(alpha)
            right.append((k + 1, v, beta))
    return d, e, _accumulate(p, left), _accumulate(q, right)


def _turn(z: np.ndarray, a: int, b: int, c: float, s: float) -> None:
    """Rows ``a < b`` of ``z`` become ``(c z_a - s z_b, c z_b + s z_a)``, with the arithmetic of ``_rotate_rows``."""
    pair = z[a : b + 1 : b - a]
    turned = pair[::-1] * np.array([[-s], [s]])
    pair *= c
    pair += turned


def _bidiagonal_qr(d: list[float], e: list[float], ut: np.ndarray, vt: np.ndarray, tol: float) -> None:
    """Diagonalize the upper bidiagonal (d, e) in place by shifted implicit QR.

    ``e[i]`` couples ``d[i]`` and ``d[i + 1]`` and counts as zero once
    ``|e[i]| <= tol``; on return ``d`` holds the singular values, some
    perhaps negative. Every rotation of rows of the bidiagonal also turns the
    same rows of ``ut`` and every rotation of its columns those rows of
    ``vt``, so a ``ut`` and ``vt`` that start as the first ``q`` rows of
    ``U^T`` and ``V^T`` of ``b = U [Bd; 0] V^T`` end with the singular vectors
    of ``b`` as rows: ``b^T ut[i] = d[i] vt[i]`` and ``b vt[i] = d[i] ut[i]``.
    Each step is Golub and Kahan's, with Wilkinson's shift from the trailing
    ``2 x 2`` of ``Bd^T Bd`` (Golub and Van Loan, Algorithms 8.6.1 and 8.6.2),
    and each singular value gets at most ``_QL_ITERATION_CAP`` steps before
    ConvergenceError.

    A rotation ``(c, s)`` of rows ``i < j`` makes them ``(c z_i + s z_j, c
    z_j - s z_i)``. A step chases its bulge down from row ``lo`` to row
    ``hi``, turning the rows ``(k, k + 1)`` for ``k = lo, ..., hi - 1``, of
    ``vt`` and then of ``ut``. In copies of ``ut`` and ``vt`` with their rows
    reversed, those are the rows ``(q - 2 - k, q - 1 - k)`` counting down from
    ``q - 2 - lo``, a sweep as ``_ql_implicit`` records one, and the update is
    that of ``_rotate_rows`` with the same ``(c, s)``. So the recurrence
    records each step once for both copies and flushes the record as
    ``_ql_implicit`` does. A diagonal entry with ``|d[i]| <= tol`` is set to
    zero, and its row (or, at ``hi``, its column) is split off by rotations of
    the rows ``(i, j)`` for each ``j`` past ``i`` (or ``(j, hi)`` for each
    ``j`` before ``hi``). Those rows are not adjacent, so the record is flushed
    first and ``_turn`` applies the rotations one at a time.
    """
    n = len(d)
    ur, vr = ut[::-1].copy(), vt[::-1].copy()
    sweeps: list[tuple[int, int]] = []  # (top row, rotation count) of each recorded step
    cu: list[float] = []
    su: list[float] = []
    cv: list[float] = []
    sv: list[float] = []

    def flush() -> None:
        _rotate_rows(ur, sweeps, cu, su)
        _rotate_rows(vr, sweeps, cv, sv)
        for record in (sweeps, cu, su, cv, sv):
            record.clear()

    hi = n - 1
    steps = 0
    while hi > 0:
        if abs(e[hi - 1]) <= tol:
            hi -= 1
            steps = 0
            continue
        lo = hi - 1
        while lo > 0 and abs(e[lo - 1]) > tol:
            lo -= 1
        zero = next((i for i in range(lo, hi + 1) if abs(d[i]) <= tol), None)
        if zero is not None:
            flush()
            d[zero] = 0.0
            if zero < hi:
                # Row rotations (zero, j) push e[zero] along the row to column hi.
                x, e[zero] = e[zero], 0.0
                for j in range(zero + 1, hi + 1):
                    if x == 0.0:
                        break
                    r = math.hypot(d[j], x)
                    c, s = d[j] / r, -x / r
                    d[j] = r
                    _turn(ur, n - 1 - j, n - 1 - zero, c, s)
                    if j < hi:
                        x = s * e[j]
                        e[j] *= c
            else:
                # Column rotations (j, hi) push e[hi - 1] up the column to row lo.
                x, e[hi - 1] = e[hi - 1], 0.0
                for j in range(hi - 1, lo - 1, -1):
                    if x == 0.0:
                        break
                    r = math.hypot(d[j], x)
                    c, s = d[j] / r, x / r
                    d[j] = r
                    _turn(vr, n - 1 - hi, n - 1 - j, c, s)
                    if j > lo:
                        x = -s * e[j - 1]
                        e[j - 1] *= c
            continue
        if steps == _QL_ITERATION_CAP:
            raise ConvergenceError(
                f"bidiagonal QR left superdiagonal {abs(e[hi - 1]):.3e} at index {hi - 1} after "
                f"{_QL_ITERATION_CAP} steps"
            )
        steps += 1
        # Wilkinson's shift: the eigenvalue of the trailing 2 x 2 of Bd^T Bd nearer its last entry.
        f = e[hi - 2] if hi - 1 > lo else 0.0
        t11 = d[hi - 1] * d[hi - 1] + f * f
        t12 = d[hi - 1] * e[hi - 1]
        t22 = d[hi] * d[hi] + e[hi - 1] * e[hi - 1]
        delta = 0.5 * (t11 - t22)
        y = d[lo] * d[lo] - t22 + t12 * t12 / (delta + math.copysign(math.hypot(delta, t12), delta))
        z = d[lo] * e[lo]
        for k in range(lo, hi):
            # Columns (k, k + 1): zero z against y, which is row k - 1's bulge past the first step.
            r = math.hypot(y, z)
            if r == 0.0:
                c, s = 1.0, 0.0
            else:
                c, s = y / r, z / r
            if k > lo:
                e[k - 1] = r
            y = c * d[k] + s * e[k]
            ek = c * e[k] - s * d[k]
            z = s * d[k + 1]
            dk = c * d[k + 1]
            cv.append(c)
            sv.append(s)
            # Rows (k, k + 1): zero the entry below the diagonal, z, against y.
            r = math.hypot(y, z)
            if r == 0.0:
                c, s = 1.0, 0.0
            else:
                c, s = y / r, z / r
            d[k] = r
            y = c * ek + s * dk
            d[k + 1] = c * dk - s * ek
            if k < hi - 1:
                z = s * e[k + 1]
                e[k + 1] *= c
            cu.append(c)
            su.append(s)
        e[hi - 1] = y
        sweeps.append((n - 2 - lo, hi - lo))
        if len(cu) >= _ROTATION_BLOCK:
            flush()
    flush()
    ut[...] = ur[::-1]
    vt[...] = vr[::-1]


def _bipartition(g: WeightedGraph) -> np.ndarray | None:
    """One side of a 2-colouring of ``g`` as a boolean mask, or None when ``g`` has an odd cycle or a self-loop.

    The bipartite double cover has vertices ``u`` and ``u + n`` for each
    vertex ``u``, and each stored entry ``(u, v)`` joins ``u`` to ``v + n``
    and ``u + n`` to ``v``. ``g`` is bipartite exactly when no ``u`` shares a
    component with ``u + n`` (a self-loop joins them at once). The mask is
    true where the component of ``u`` is numbered after that of ``u + n``, so
    the smallest vertex of each component of ``g`` is on the false side.
    """
    n = g.n
    comp = _components(2 * n, np.concatenate([g._rows, g._rows + n]), np.concatenate([g._cols + n, g._cols]))
    if (comp[:n] == comp[n:]).any():
        return None
    return comp[:n] > comp[n:]


def _eigh_bipartite(g: WeightedGraph, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh_matrix(g.adjacency)``'s eigenpairs for a graph with the 2-colouring ``side``, from a half-size SVD.

    With the larger side's ``p`` vertices first, the adjacency is ``[[0, B],
    [B^T, 0]]`` for the ``p x q`` block ``B``, read from the stored entries
    and scaled by a power of two as in ``eigh_matrix``. Each singular triple
    ``(sigma, u, v)`` of ``B`` gives the eigenpairs ``-sigma, (u, -v) / sqrt 2``
    and ``sigma, (u, v) / sqrt 2``, and the last ``p - q`` columns of ``U``
    are eigenvectors ``(u, 0)`` of 0. Returns the eigenvalues in ascending
    (stable) order and the eigenvector columns in vertex order, unsigned;
    ConvergenceError when the QR recurrence runs out of steps or an
    eigenvalue overflows a float.
    """
    if 2 * int(side.sum()) > g.n:
        side = ~side
    rows, cols = np.flatnonzero(~side), np.flatnonzero(side)
    p, q = rows.size, cols.size
    pos = np.empty(g.n, dtype=np.intp)
    pos[rows] = np.arange(p)
    pos[cols] = np.arange(q)
    # Every stored entry joins the two sides; keep those with their row on the larger one.
    first = ~side[g._rows]
    exponent = math.frexp(float(np.abs(g._weights).max(initial=0.0)))[1]
    b = np.zeros((p, q))
    b[pos[g._rows[first]], pos[g._cols[first]]] = np.ldexp(g._weights[first], -exponent)
    d, e, u, v = _bidiagonalize(b)
    # Deflating at eps * max(||Bd||_1, ||Bd||_inf), as eigh_matrix does at eps * ||T||_inf.
    diag, sup = np.abs(d), np.abs(e)
    across, down = diag.copy(), diag
    across[:-1] += sup
    down[1:] += sup
    tol = _EPS * float(max(across.max(initial=0.0), down.max(initial=0.0)))
    ut, vt = np.ascontiguousarray(u.T), np.ascontiguousarray(v.T)
    _bidiagonal_qr(d, e, ut[:q], vt, tol)
    sigma = np.array(d)
    vt[sigma < 0.0] *= -1.0
    sigma = np.abs(sigma)
    half = math.sqrt(0.5)
    zt = np.zeros((p + q, p + q))
    zt[:q, rows] = zt[p:, rows] = ut[:q] * half
    zt[p:, cols] = vt * half
    zt[:q, cols] = -zt[p:, cols]
    zt[q:p, rows] = ut[q:]
    with np.errstate(over="ignore"):
        vals = np.ldexp(np.concatenate([0.0 - sigma, np.zeros(p - q), sigma]), exponent)
    if not np.isfinite(vals).all():
        raise ConvergenceError("eigenvalues overflow a float")
    order = np.argsort(vals, kind="stable")
    return vals[order], zt[order].T


def _is_weighted_path(g: WeightedGraph) -> bool:
    """Whether ``g`` stores exactly ``weighted_path(g.n)``, ``n <= _KRAWTCHOUK_MAX``: its edges bit for bit, no loop."""
    n = g.n
    # Both triangles are stored alike, so 2 (n - 1) entries leave no room for a loop.
    if not 2 <= n <= _KRAWTCHOUK_MAX or g._weights.size != 2 * (n - 1):
        return False
    upper, v = g._rows < g._cols, np.arange(1, n)
    return (
        np.array_equal(g._rows[upper], v - 1)
        and np.array_equal(g._cols[upper], v)
        and np.array_equal(g._weights[upper], np.sqrt(v * (n - v)))
    )


def _sqrt_ratio(num: int, den: int) -> float:
    """``sqrt(num / den)`` correctly rounded, for positive integers ``num`` and ``den``."""
    # r = floor(sqrt(num / den) * 2**s) has at least 55 bits, and its low bit,
    # set when the root is inexact, makes float(r) round as the exact root would.
    s = 56 - (num.bit_length() - den.bit_length()) // 2
    q, rem = divmod(num << 2 * s, den) if s >= 0 else divmod(num, den << -2 * s)
    r = math.isqrt(q)
    return math.ldexp(float(r | (rem != 0 or r * r != q)), -s)


def _eigh_weighted_path(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``weighted_path(n)`` in closed form, unsigned (README, "Notes on the eigensolver").

    With N = n - 1, mode l, in column N - l, has the eigenvalue N - 2 l and
    the vector z_l(v) = K_l(v) sqrt(C(N, v) / 2^N) / sqrt(C(N, l))
    (Christandl et al., PRL 92:187902, 2004). The Krawtchouk values K_l(v)
    run their three-term recurrence in l on Python integers (in floats it is
    unstable), for v, l <= N / 2 only: the rest follow by the signs (-1)^l
    and (-1)^v, so |z_l(v)| == |z_l(N - v)| bit for bit.
    """
    big, half = n - 1, (n + 1) // 2
    v = np.arange(half)
    slope = np.array((big - 2 * v).tolist(), dtype=object)
    values = np.ones((half, half))
    prev, cur = np.zeros(half, dtype=object), np.ones(half, dtype=object)
    for l in range(1, half):
        prev, cur = cur, (slope * cur - (big - l + 2) * prev) // l
        values[:, l] = cur.astype(float)
    binomials = [math.comb(big, j) for j in range(half)]
    site = np.array([_sqrt_ratio(c, 1 << big) for c in binomials])
    quarter = values * [_sqrt_ratio(1, c) for c in binomials] * site[:, None]
    signs = 1.0 - 2.0 * (np.arange(n) % 2)
    z = np.empty((n, n))
    z[:half, :half] = quarter
    z[:half, big - v] = quarter * signs[:half, None]
    z[big - v] = z[:half] * signs
    return np.arange(-big, n, 2, dtype=float), z[:, ::-1]


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    cols = np.arange(vecs.shape[1])
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, cols])
    signs[signs == 0.0] = 1.0
    return vecs * signs


def eigh(g: WeightedGraph) -> SpectralDecomposition:
    """Spectral decomposition of a graph's adjacency matrix.

    Exactly ``weighted_path(n)``, up to ``_KRAWTCHOUK_MAX`` vertices, comes in
    closed form (``_eigh_weighted_path``). Any other bipartite graph with at
    least ``_BIPARTITE_MIN`` vertices is coloured from its stored entries
    (``_bipartition``) and solved by the half-size SVD of ``_eigh_bipartite``;
    any other graph by ``eigh_matrix(g.adjacency)``. Every route meets the
    same accuracy bounds and determinism promise, and every result gets the
    sign convention of SpectralDecomposition.
    """
    if _is_weighted_path(g):
        vals, vecs = _eigh_weighted_path(g.n)
    else:
        side = _bipartition(g) if g.n >= _BIPARTITE_MIN else None
        vals, vecs = eigh_matrix(g.adjacency) if side is None else _eigh_bipartite(g, side)
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


def _angles(values: np.ndarray, times) -> np.ndarray:
    """``t * lambda`` for every eigenvalue (rows) and time; refuses a product past the float range."""
    with np.errstate(over="ignore"):
        angles = np.multiply.outer(values, times)
    if not np.isfinite(angles).all():
        raise PreconditionError("a time times an eigenvalue overflows a float")
    return angles


def evolve(spec: SpectralDecomposition, t: float) -> np.ndarray:
    """Propagator U(t) = exp(-i t A) from a spectral decomposition, as a read-only complex array."""
    t = _check_time(t)
    z = spec.eigenvectors
    angles = _angles(spec.eigenvalues, t)
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
    phases = np.exp(-1j * _angles(spec.eigenvalues, t))
    weights = spec.eigenvectors[v - 1] * spec.eigenvectors[u - 1]
    return complex(weights @ phases)


def _pair_scan(
    spec: SpectralDecomposition, times: np.ndarray
) -> tuple[np.ndarray, tuple[float, int, int, int], int]:
    """Largest amplitude modulus ``|U_ij(t)|`` over 0-based pairs ``i < j`` and ``times``, pruned by a bound.

    This is ``transfer_amplitude`` in batches: for a block of pairs,
    ``U_ij(t) = sum_l z_il z_jl exp(-i t lambda_l)`` at every time is two real
    products of the weights ``z_il z_jl`` with ``cos(lambda t)`` and
    ``-sin(lambda t)``. By the triangle inequality ``|U_ij(t)| <= B_ij =
    sum_l |z_il| |z_jl|`` at every time, and ``B`` is one product
    ``|Z| |Z|^T``. Pairs go in blocks of ``n`` in descending order of ``B``,
    and the scan stops at the first block whose largest bound lies below
    ``min(best, 1 - PST_TOL) - slack``, ``best`` being the largest modulus so
    far and ``slack = _PAIR_SLACK n eps = 64 n eps``. Each computed sum is
    within about ``n eps`` of its exact value, its terms summing to at most
    ``B_ij <= |z_i| |z_j| = 1``, so the slack covers the rounding: every pair
    left out has a modulus below both ``best`` and ``1 - PST_TOL``, and the
    order of pairs within a block or among equal bounds changes no result.

    Returns a mask of the times at which some pair reaches ``1 - PST_TOL``,
    the best ``(modulus, time index, i, j)`` with ties to the earliest time and
    then the smallest ``(i, j)``, as in a row-major argmax of a symmetric
    ``|U|`` over ascending times, and the number of pairs scanned. The best is
    ``(0.0, -1, 0, 0)`` when no amplitude is positive.
    """
    z, n = spec.eigenvectors, spec.n
    angles = _angles(spec.eigenvalues, times)
    cos, minus_sin = np.cos(angles), -np.sin(angles)
    bound = np.abs(z) @ np.abs(z).T
    # The diagonal and below sort after every pair i < j, and are cut off.
    bound[np.tri(n, dtype=bool)] = -1.0
    order = np.argsort(bound, axis=None)[::-1][: n * (n - 1) // 2]
    bound = bound.ravel()
    floor, slack = 1.0 - PST_TOL, _PAIR_SLACK * n * _EPS
    transfers = np.zeros(len(times), dtype=bool)
    best = (0.0, -1, 0, 0)
    scanned = 0
    for lo in range(0, order.size, n):
        block = order[lo : lo + n]
        if bound[block[0]] < min(best[0], floor) - slack:
            break
        i, j = np.divmod(block, n)
        weights = z[i]
        weights *= z[j]
        amps = np.empty((block.size, len(times)), dtype=complex)
        amps.real = weights @ cos
        amps.imag = weights @ minus_sin
        moduli = np.abs(amps)
        transfers |= (moduli >= floor).any(axis=0)
        top = float(moduli.max())
        if top > 0.0 and top >= best[0]:
            rows, cols = np.nonzero(moduli == top)
            first = np.lexsort((block[rows], cols))[0]
            candidate = (top, int(cols[first]), int(i[rows[first]]), int(j[rows[first]]))
            if top > best[0] or candidate[1:] < best[1:]:
                best = candidate
        scanned += block.size
    return transfers, best, scanned


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
