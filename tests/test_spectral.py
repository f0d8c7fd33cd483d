"""Eigensolver accuracy and propagator algebra.

numpy.linalg serves as the independent oracle for eigenvalues; the package
itself never calls it for decompositions.
"""

import inspect
import io
import math
import textwrap
import tokenize
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pstlab.spectral
from pstlab import (
    ConvergenceError,
    InvalidSizeError,
    PreconditionError,
    WeightedGraph,
    eigh,
    eigh_matrix,
    evolve,
    find_pst_pairs,
    hypercube,
    is_periodic,
    mirror_partition,
    normalized_partition_matrix,
    quotient,
    simple_path,
    symmetric_power,
    transfer_amplitude,
    weighted_path,
)

EIG_ORACLE_TOL = 1e-9
PROP_TOL = 1e-8
EPS = float(np.finfo(float).eps)


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a + a.T


def with_spectrum(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    """Q diag(d) Q^T for a random orthogonal Q, symmetrized exactly."""
    q, _ = np.linalg.qr(rng.normal(size=(d.size, d.size)))
    a = (q * d) @ q.T
    return (a + a.T) / 2.0


def assert_eigh_accurate(a: np.ndarray) -> None:
    """Differential check of eigh_matrix against numpy.linalg.eigh.

    Both solvers are backward stable, so eigenvalues agree and the residual
    and orthogonality stay within a small multiple of n * eps * ||A||_2.
    Eigenvectors are not compared: inside a cluster or a degenerate
    eigenspace any orthonormal basis is correct.
    """
    n = a.shape[0]
    vals, vecs = eigh_matrix(a)
    oracle, _ = np.linalg.eigh(a)
    norm = float(np.abs(oracle).max())
    bound = 10.0 * n * EPS * norm
    assert np.all(np.diff(vals) >= 0.0)
    assert np.abs(vals - oracle).max() <= bound
    assert np.abs(a @ vecs - vecs * vals[None, :]).max() <= bound
    assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 10.0 * n * EPS
    again_vals, again_vecs = eigh_matrix(a)
    assert again_vals.tobytes() == vals.tobytes()
    assert again_vecs.tobytes() == vecs.tobytes()


def test_weighted_path_integer_ladder():
    for n in range(2, 13):
        vals = eigh(weighted_path(n)).eigenvalues
        expected = np.arange(-(n - 1), n, 2, dtype=float)
        assert np.abs(vals - expected).max() <= EIG_ORACLE_TOL


def test_hypercube_binomial_spectrum():
    vals = eigh(hypercube(3)).eigenvalues
    expected = np.array([-3.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 3.0])
    assert np.abs(vals - expected).max() <= EIG_ORACLE_TOL


def test_zero_matrix_and_diagonal():
    vals, vecs = eigh_matrix(np.zeros((3, 3)))
    assert np.array_equal(vals, np.zeros(3))
    assert np.array_equal(vecs, np.eye(3))
    vals, _ = eigh_matrix(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(vals, np.array([-1.0, 2.0, 3.0]))


def test_eigh_matrix_matches_lapack_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8, 13):
        a = random_symmetric(rng, n)
        vals, vecs = eigh_matrix(a)
        oracle = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.abs(oracle).max()))
        assert np.abs(vals - oracle).max() <= EIG_ORACLE_TOL * scale
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-12
        assert np.abs(a @ vecs - vecs * vals[None, :]).max() <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31 - 1))
def test_eigh_matrix_random_spectra(n, seed):
    assert_eigh_accurate(random_symmetric(np.random.default_rng(seed), n))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_eigh_matrix_clustered_spectra(centers, size, seed):
    # every center carries `size` eigenvalues whose gaps are near 1e-10
    rng = np.random.default_rng(seed)
    d = np.repeat(np.array(centers, dtype=float), size)
    d += 1e-10 * rng.random(d.size)
    assert_eigh_accurate(with_spectrum(rng, d))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_eigh_matrix_degenerate_spectra(values, multiplicity, seed):
    d = np.repeat(np.array(values, dtype=float), multiplicity)
    assert_eigh_accurate(with_spectrum(np.random.default_rng(seed), d))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=4), st.integers(0, 2**31 - 1))
def test_eigh_matrix_block_diagonal(sizes, seed):
    rng = np.random.default_rng(seed)
    a = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for size in sizes:
        a[start : start + size, start : start + size] = random_symmetric(rng, size)
        start += size
    assert_eigh_accurate(a)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(0, 2**31 - 1))
def test_eigh_matrix_tridiagonal_input(n, seed):
    rng = np.random.default_rng(seed)
    off = rng.normal(size=n - 1)
    off[rng.random(n - 1) < 0.2] = 0.0  # some blocks split from the start
    a = np.diag(rng.normal(size=n)) + np.diag(off, 1) + np.diag(off, -1)
    assert_eigh_accurate(a)


@pytest.mark.parametrize("dim,k", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_eigh_matrix_hardcore_hypercubes(dim, k):
    # large, exactly degenerate zero eigenspaces
    assert_eigh_accurate(symmetric_power(hypercube(dim), k).adjacency)


def test_eigh_matrix_small_and_trivial_inputs():
    assert_eigh_accurate(np.array([[2.5]]))
    assert_eigh_accurate(np.zeros((4, 4)))
    assert_eigh_accurate(np.diag([3.0, -1.0, 2.0, -1.0]))
    assert_eigh_accurate(np.array([[0.0, 1e-300], [1e-300, 0.0]]))
    huge = random_symmetric(np.random.default_rng(3), 6) * 1e300  # squares overflow unscaled
    assert_eigh_accurate(huge)
    assert_eigh_accurate(random_symmetric(np.random.default_rng(4), 6) * 1e-300)  # squares underflow
    assert eigh_matrix(np.zeros((0, 0)))[0].size == 0


def test_eigh_matrix_extreme_scales():
    # 2**1023 scales by 2**-1024, a power of two that is no float
    assert_eigh_accurate(np.array([[2.0**1023]]))
    # the last column scales to 1e-154: its reflector's 2 / (v . v) would overflow
    assert_eigh_accurate(np.array([[1e149, 0.0, 1e-5], [0.0, 0.0, 0.0], [1e-5, 0.0, 0.0]]))
    with pytest.raises(ConvergenceError, match="eigenvalues overflow a float"):
        eigh_matrix(np.full((3, 3), 1.5e308))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eigh_matrix_non_finite_input_raises(bad):
    for pos in ((0, 0), (0, 2)):
        a = random_symmetric(np.random.default_rng(1), 4)
        a[pos] = a[pos[::-1]] = bad
        with pytest.raises(ConvergenceError):
            eigh_matrix(a)


def test_eigh_matrix_iteration_budget(monkeypatch):
    # with no QL steps allowed, any coupled tridiagonal exhausts the budget
    monkeypatch.setattr(pstlab.spectral, "_QL_ITERATION_CAP", 0)
    with pytest.raises(ConvergenceError):
        eigh_matrix(random_symmetric(np.random.default_rng(2), 5))
    vals, vecs = eigh_matrix(np.diag([2.0, 1.0]))  # nothing to iterate on
    assert np.array_equal(vals, [1.0, 2.0])


def ql_rotation_by_rotation(d, e, zt, tol, counts=None):
    """Oracle for spectral._ql_implicit: each plane rotation applied to zt as it is made.

    The same recurrence, shift, deflation test, ``r == 0`` split and
    iteration cap; ``counts["rotations"]``, when given, counts the rotations.
    """
    n = len(d)
    e.append(0.0)
    flip = np.array([[-1.0], [1.0]])
    swapped = np.empty((2, zt.shape[1]))
    cap = pstlab.spectral._QL_ITERATION_CAP
    for lo in range(n):
        steps = 0
        while True:
            m = lo
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == lo:
                break
            if steps == cap:
                raise ConvergenceError(
                    f"implicit QL left subdiagonal {abs(e[lo]):.3e} at index {lo} after {cap} steps"
                )
            steps += 1
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            r = math.hypot(g, 1.0)
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            split = False
            for i in range(m - 1, lo - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
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
                # Rows (i, i + 1) become (c z_i - s z_i+1, c z_i+1 + s z_i).
                pair = zt[i : i + 2]
                np.multiply(pair[::-1], flip, out=swapped)
                swapped *= s
                pair *= c
                pair += swapped
                if counts is not None:
                    counts["rotations"] += 1
            if split:
                continue
            d[lo] -= p
            e[lo] = g
            e[m] = 0.0


def oracle_eigh_matrix(a, counts=None):
    """eigh_matrix with the rotation-by-rotation QL in place of the wave-batched one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            pstlab.spectral, "_ql_implicit", lambda d, e, zt, tol: ql_rotation_by_rotation(d, e, zt, tol, counts)
        )
        return eigh_matrix(a)


def assert_matches_oracle(a, counts=None):
    vals, vecs = eigh_matrix(a)
    oracle_vals, oracle_vecs = oracle_eigh_matrix(a, counts)
    assert np.array_equal(vals, oracle_vals) and np.array_equal(vecs, oracle_vecs)
    assert vals.tobytes() == oracle_vals.tobytes() and vecs.tobytes() == oracle_vecs.tobytes()


def probe_graph(kind, size, k, seed):
    """Hard-core graph of a ring C_size or a cube Q_size with seeded weights in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    if kind == "ring":
        n, pairs = size, [(v, (v + 1) % size) for v in range(size)]
    else:
        n, pairs = 2**size, [(v, v ^ (1 << b)) for v in range(2**size) for b in range(size) if v < v ^ (1 << b)]
    a = np.zeros((n, n))
    for u, v in pairs:
        a[u, v] = a[v, u] = rng.uniform(0.5, 1.5)
    return symmetric_power(WeightedGraph(n, a), k)


def probe_style_graph(kind, size, k, seed):
    return probe_graph(kind, size, k, seed).adjacency


@pytest.mark.parametrize("m", range(1, 131))
def test_wave_rotations_match_oracle_random(m):
    assert_matches_oracle(random_symmetric(np.random.default_rng(1000 + m), m))


@pytest.mark.parametrize("kind,size,k", [("ring", 12, 2), ("ring", 10, 3), ("cube", 4, 2)])
def test_wave_rotations_match_oracle_probe_graphs(kind, size, k):
    assert_matches_oracle(probe_style_graph(kind, size, k, seed=21))


def test_wave_rotations_match_oracle_structured():
    # the exact zero eigenspace of the cube's hard-core power, weighted paths, the zero matrix
    assert_matches_oracle(symmetric_power(hypercube(4), 2).adjacency)
    for n in range(2, 21):
        assert_matches_oracle(weighted_path(n).adjacency)
    assert_matches_oracle(np.zeros((5, 5)))
    rng = np.random.default_rng(11)
    clustered = np.repeat([-1.0, 0.0, 2.0], 8) + 1e-10 * rng.random(24)
    assert_matches_oracle(with_spectrum(rng, clustered))
    assert_matches_oracle(with_spectrum(rng, np.repeat([-2.0, 1.0, 3.0], 10)))


def test_wave_rotations_span_several_flush_blocks(monkeypatch):
    a = random_symmetric(np.random.default_rng(5), 90)
    counts = {"rotations": 0}
    assert_matches_oracle(a, counts)
    assert counts["rotations"] > 2 * pstlab.spectral._ROTATION_BLOCK
    # a flush after every sweep, and one after a handful of rotations, leave the bytes alone
    for block in (1, 7):
        monkeypatch.setattr(pstlab.spectral, "_ROTATION_BLOCK", block)
        assert_matches_oracle(a)


def record_flushes(a):
    """``(zt, sweeps, cs, ss)`` as each ``_rotate_rows`` flush of ``eigh_matrix(a)`` receives it."""
    flushes = []
    rotate = pstlab.spectral._rotate_rows

    def spy(zt, sweeps, cs, ss):
        flushes.append((zt.copy(), list(sweeps), list(cs), list(ss)))
        rotate(zt, sweeps, cs, ss)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pstlab.spectral, "_rotate_rows", spy)
        eigh_matrix(a)
    return flushes


def waves_and_runs(sweeps):
    """Wave count and the count of runs of rows two apart, in the wave-sorted order of a record."""
    keys = sorted((2 * k - (top - j), k, top - j) for k, (top, count) in enumerate(sweeps) for j in range(count))
    rows = [row for _, _, row in keys]
    return len({wave for wave, _, _ in keys}), 1 + sum(b - a != 2 for a, b in zip(rows, rows[1:]))


def rotate_one_by_one(zt, sweeps, cs, ss):
    """The recorded rotations applied in recorded order, with the oracle's update of a row pair."""
    flip = np.array([[-1.0], [1.0]])
    swapped = np.empty((2, zt.shape[1]))
    rotation = 0
    for top, count in sweeps:
        for i in range(top, top - count, -1):
            pair = zt[i : i + 2]
            np.multiply(pair[::-1], flip, out=swapped)
            swapped *= ss[rotation]
            pair *= cs[rotation]
            pair += swapped
            rotation += 1


def test_wave_split_into_row_runs_matches_oracle():
    # the last flush of this ring has waves whose rows are not all two apart
    a = probe_style_graph("ring", 10, 3, seed=21)
    split = 0
    for zt, sweeps, cs, ss in record_flushes(a):
        waves, runs = waves_and_runs(sweeps)
        split += runs > waves
        batched, one_by_one = zt.copy(), zt.copy()
        pstlab.spectral._rotate_rows(batched, sweeps, cs, ss)
        rotate_one_by_one(one_by_one, sweeps, cs, ss)
        assert batched.tobytes() == one_by_one.tobytes()
    assert split > 0
    assert_matches_oracle(a)


def test_rotate_rows_refuses_a_zt_that_is_not_c_contiguous():
    # a reshape of such a zt copies, and the rotations would land in the copy
    sweeps, cs, ss = [(1, 2)], [0.6, 0.8], [0.8, 0.6]
    for zt in (np.asfortranarray(np.arange(12.0).reshape(3, 4)), np.arange(15.0).reshape(3, 5)[:, :4]):
        before = zt.copy()
        with pytest.raises(PreconditionError, match="C-contiguous"):
            pstlab.spectral._rotate_rows(zt, sweeps, cs, ss)
        assert np.array_equal(zt, before)


def householder_elementwise(t):
    """Oracle for spectral._tridiagonalize: the same reflectors with elementwise products and sums."""
    n = t.shape[0]
    reflectors = []
    for k in range(n - 2):
        x = t[k + 1 :, k]
        if not x[1:].any():
            continue
        norm2 = float((x * x).sum())
        if norm2 < pstlab.spectral._TINY_COLUMN:
            continue
        alpha = -math.copysign(math.sqrt(norm2), x[0])
        v = x.copy()
        v[0] -= alpha
        beta = 2.0 / float((v * v).sum())
        sub = t[k + 1 :, k + 1 :]
        p = beta * (sub * v).sum(axis=1)
        w = p - (0.5 * beta * float((p * v).sum())) * v
        sub -= v[:, None] * w[None, :] + w[:, None] * v[None, :]
        t[k + 1, k] = alpha
        reflectors.append((k + 1, v, beta))
    q = np.eye(n)
    for j, v, beta in reversed(reflectors):
        block = q[j:, j:]
        block -= (beta * v)[:, None] * (v[:, None] * block).sum(axis=0)[None, :]
    return q


def tridiagonal_part(t):
    return np.diag(np.diag(t)) + np.diag(np.diag(t, -1), -1) + np.diag(np.diag(t, -1), 1)


def assert_tridiagonalizes(a):
    """Q orthogonal, Q T Q^T = A and the oracle's spectrum of T, each within 10 m eps ||A||_2.

    T and Q are not compared entry by entry: a column that is exactly zero
    below its subdiagonal in one route and roundoff in the other changes
    which reflectors run. Returns the reduced ``t``.
    """
    m = a.shape[0]
    bound = 10.0 * m * EPS * np.linalg.norm(a, 2)
    t = a.copy()
    q = pstlab.spectral._tridiagonalize(t)
    oracle_t = a.copy()
    householder_elementwise(oracle_t)
    tri = tridiagonal_part(t)
    assert np.abs(q.T @ q - np.eye(m)).max() <= 10.0 * m * EPS
    assert np.abs(q @ tri @ q.T - a).max() <= bound
    spectrum = np.linalg.eigvalsh(tri)
    assert np.abs(spectrum - np.linalg.eigvalsh(tridiagonal_part(oracle_t))).max() <= bound
    assert np.abs(spectrum - np.linalg.eigvalsh(a)).max() <= bound
    return t


@pytest.mark.parametrize("m", range(3, 131))
def test_tridiagonalize_random(m):
    assert_tridiagonalizes(random_symmetric(np.random.default_rng(3000 + m), m))


def test_tridiagonalize_structured():
    for kind, size, k in [("ring", 12, 2), ("ring", 10, 3), ("cube", 4, 2)]:
        assert_tridiagonalizes(probe_style_graph(kind, size, k, seed=21))
    # an exact zero eigenspace
    assert_tridiagonalizes(symmetric_power(hypercube(4), 2).adjacency)
    rng = np.random.default_rng(17)
    blocks = np.zeros((15, 15))
    for lo, hi in ((0, 4), (4, 5), (5, 11), (11, 15)):
        blocks[lo:hi, lo:hi] = random_symmetric(rng, hi - lo)
    assert_tridiagonalizes(blocks)
    # the first column's squares sum below _TINY_COLUMN, so it gets no reflector
    tiny = random_symmetric(rng, 7)
    tiny[1:, 0] = tiny[0, 1:] = 1e-150 * rng.normal(size=6)
    assert float((tiny[1:, 0] ** 2).sum()) < pstlab.spectral._TINY_COLUMN
    assert np.array_equal(assert_tridiagonalizes(tiny)[:, 0], tiny[:, 0])


@pytest.mark.parametrize("cap", [0, 1])
def test_iteration_budget_message_matches_oracle(monkeypatch, cap):
    monkeypatch.setattr(pstlab.spectral, "_QL_ITERATION_CAP", cap)
    a = random_symmetric(np.random.default_rng(2), 5)
    with pytest.raises(ConvergenceError) as batched:
        eigh_matrix(a)
    with pytest.raises(ConvergenceError) as oracle:
        oracle_eigh_matrix(a)
    assert str(batched.value) == str(oracle.value)


def bidiagonal_rotation_by_rotation(d, e, ut, vt, tol, counts=None):
    """Oracle for spectral._bidiagonal_qr: each rotation applied to the rows of ut or vt as it is made.

    The same recurrence, shift, deflation and zero-diagonal tests, chases and
    iteration cap, on the rows in their own order; ``counts``, when given,
    counts the rotations of the steps and those of the chases.
    """
    n = len(d)
    flip = np.array([[1.0], [-1.0]])
    cap = pstlab.spectral._QL_ITERATION_CAP

    def turn(z, i, j, c, s):
        # Rows (i, j) become (c z_i + s z_j, c z_j - s z_i).
        pair = z[i : j + 1 : j - i]
        swapped = pair[::-1] * flip
        swapped *= s
        pair *= c
        pair += swapped

    def rotation(y, z):
        r = math.hypot(y, z)
        return (r, 1.0, 0.0) if r == 0.0 else (r, y / r, z / r)

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
        zeros = [i for i in range(lo, hi + 1) if abs(d[i]) <= tol]
        if zeros:
            i = zeros[0]
            d[i] = 0.0
            if i < hi:
                x, e[i] = e[i], 0.0
                for j in range(i + 1, hi + 1):
                    if x == 0.0:
                        break
                    r = math.hypot(d[j], x)
                    c, s = d[j] / r, -x / r
                    d[j] = r
                    turn(ut, i, j, c, s)
                    if counts is not None:
                        counts["chase"] += 1
                    if j < hi:
                        x = s * e[j]
                        e[j] *= c
            else:
                x, e[hi - 1] = e[hi - 1], 0.0
                for j in range(hi - 1, lo - 1, -1):
                    if x == 0.0:
                        break
                    r = math.hypot(d[j], x)
                    c, s = d[j] / r, x / r
                    d[j] = r
                    turn(vt, j, hi, c, s)
                    if counts is not None:
                        counts["chase"] += 1
                    if j > lo:
                        x = -s * e[j - 1]
                        e[j - 1] *= c
            continue
        if steps == cap:
            raise ConvergenceError(
                f"bidiagonal QR left superdiagonal {abs(e[hi - 1]):.3e} at index {hi - 1} after {cap} steps"
            )
        steps += 1
        f = e[hi - 2] if hi - 1 > lo else 0.0
        t11 = d[hi - 1] * d[hi - 1] + f * f
        t12 = d[hi - 1] * e[hi - 1]
        t22 = d[hi] * d[hi] + e[hi - 1] * e[hi - 1]
        delta = 0.5 * (t11 - t22)
        y = d[lo] * d[lo] - t22 + t12 * t12 / (delta + math.copysign(math.hypot(delta, t12), delta))
        z = d[lo] * e[lo]
        for k in range(lo, hi):
            r, c, s = rotation(y, z)
            if k > lo:
                e[k - 1] = r
            y = c * d[k] + s * e[k]
            ek = c * e[k] - s * d[k]
            z = s * d[k + 1]
            dk = c * d[k + 1]
            turn(vt, k, k + 1, c, s)
            r, c, s = rotation(y, z)
            d[k] = r
            y = c * ek + s * dk
            d[k + 1] = c * dk - s * ek
            if k < hi - 1:
                z = s * e[k + 1]
                e[k + 1] *= c
            turn(ut, k, k + 1, c, s)
            if counts is not None:
                counts["rotations"] += 1
        e[hi - 1] = y


def bipartite_eigh(g):
    """The bipartite route on g whatever its size: eigenvalues and unsigned eigenvectors."""
    side = pstlab.spectral._bipartition(g)
    assert side is not None
    return pstlab.spectral._eigh_bipartite(g, side)


def oracle_bipartite_eigh(g, counts=None):
    """bipartite_eigh with the rotation-by-rotation recurrence in place of the wave-batched one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            pstlab.spectral,
            "_bidiagonal_qr",
            lambda d, e, ut, vt, tol: bidiagonal_rotation_by_rotation(d, e, ut, vt, tol, counts),
        )
        return bipartite_eigh(g)


def assert_bipartite_matches_oracle(g, counts=None):
    vals, vecs = bipartite_eigh(g)
    oracle_vals, oracle_vecs = oracle_bipartite_eigh(g, counts)
    assert vals.tobytes() == oracle_vals.tobytes() and vecs.tobytes() == oracle_vecs.tobytes()


def random_bipartite(rng, p, q, rank=None, density=0.4):
    """A graph whose off-diagonal block is a random p x q B (of the given rank), vertices shuffled."""
    if rank is None:
        b = rng.normal(size=(p, q)) * (rng.random((p, q)) < density)
    else:
        b = rng.normal(size=(p, rank)) @ rng.normal(size=(rank, q))
    a = np.zeros((p + q, p + q))
    a[:p, p:] = b
    a[p:, :p] = b.T
    order = rng.permutation(p + q)
    return WeightedGraph(p + q, a[np.ix_(order, order)])


def even_ring(n, rng):
    a = np.zeros((n, n))
    for v in range(n):
        a[v, (v + 1) % n] = a[(v + 1) % n, v] = rng.uniform(0.5, 1.5)
    return WeightedGraph(n, a)


@pytest.mark.parametrize("kind,size,k", [("ring", 12, 2), ("ring", 10, 3), ("cube", 4, 2)])
def test_bidiagonal_rotations_match_oracle_probe_graphs(kind, size, k):
    assert_bipartite_matches_oracle(probe_graph(kind, size, k, seed=21))


def test_bidiagonal_rotations_match_oracle_structured():
    for n in range(2, 21):
        assert_bipartite_matches_oracle(weighted_path(n))
        assert_bipartite_matches_oracle(simple_path(n))
    for dim in range(1, 7):
        assert_bipartite_matches_oracle(hypercube(dim))
    rng = np.random.default_rng(12)
    for p, q, rank in [(9, 4, None), (8, 8, None), (12, 7, 3), (6, 6, 2)]:
        assert_bipartite_matches_oracle(random_bipartite(rng, p, q, rank))


def test_bidiagonal_zero_diagonal_chase_matches_oracle():
    # the unweighted cube's hard-core power has zero singular values beyond p - q
    g = symmetric_power(hypercube(4), 2)
    counts = {"rotations": 0, "chase": 0}
    assert_bipartite_matches_oracle(g, counts)
    vals = bipartite_eigh(g)[0]
    side = pstlab.spectral._bipartition(g)
    assert np.count_nonzero(np.abs(vals) < 1e-12) > abs(g.n - 2 * int(side.sum()))
    assert counts["chase"] > 0


def test_bidiagonal_rotations_span_several_flush_blocks(monkeypatch):
    g = random_bipartite(np.random.default_rng(6), 120, 110, density=0.5)
    counts = {"rotations": 0, "chase": 0}
    assert_bipartite_matches_oracle(g, counts)
    assert counts["rotations"] > 2 * pstlab.spectral._ROTATION_BLOCK
    # a flush after every step, and one after a handful of rotations, leave the bytes alone
    for block in (1, 7):
        monkeypatch.setattr(pstlab.spectral, "_ROTATION_BLOCK", block)
        assert_bipartite_matches_oracle(g)
        assert_bipartite_matches_oracle(symmetric_power(hypercube(4), 2))


def test_bidiagonalize_reconstructs_its_input():
    rng = np.random.default_rng(15)
    for p, q in [(1, 1), (7, 7), (12, 5), (30, 29), (40, 3)]:
        b = rng.normal(size=(p, q))
        d, e, u, v = pstlab.spectral._bidiagonalize(b.copy())
        bd = np.zeros((p, q))
        bd[range(q), range(q)] = d
        bd[range(q - 1), range(1, q)] = e
        assert np.abs(u.T @ u - np.eye(p)).max() <= 10.0 * p * EPS
        assert np.abs(v.T @ v - np.eye(q)).max() <= 10.0 * p * EPS
        assert np.abs(u @ bd @ v.T - b).max() <= 10.0 * p * EPS * np.linalg.norm(b, 2)
    # an upper bidiagonal b needs no reflector
    b = np.zeros((6, 4))
    b[range(4), range(4)] = rng.normal(size=4)
    b[range(3), range(1, 4)] = rng.normal(size=3)
    d, e, u, v = pstlab.spectral._bidiagonalize(b.copy())
    assert d == np.diag(b).tolist() and e == np.diag(b, 1).tolist()
    assert np.array_equal(u, np.eye(6)) and np.array_equal(v, np.eye(4))


def assert_bipartite_accurate(g):
    """Differential check of the bipartite route against numpy.linalg.eigh, as assert_eigh_accurate.

    The bounds are those of assert_eigh_accurate; when g is big enough for
    eigh to take the route, eigh returns its bytes with the signs fixed.
    """
    a = g.adjacency
    n = g.n
    vals, vecs = bipartite_eigh(g)
    oracle = np.linalg.eigvalsh(a)
    norm = float(np.abs(oracle).max())
    bound = 10.0 * n * EPS * norm
    assert np.all(vals[:-1] <= vals[1:])
    assert np.abs(vals - oracle).max() <= bound
    assert np.abs(a @ vecs - vecs * vals[None, :]).max() <= bound
    assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 10.0 * n * EPS
    again_vals, again_vecs = bipartite_eigh(g)
    assert again_vals.tobytes() == vals.tobytes() and again_vecs.tobytes() == vecs.tobytes()
    if n >= pstlab.spectral._BIPARTITE_MIN:
        spec = eigh(g)
        assert spec.eigenvalues.tobytes() == vals.tobytes()
        assert spec.eigenvectors.tobytes() == pstlab.spectral._fix_signs(vecs).tobytes()


@pytest.mark.parametrize("n", range(2, 21))
def test_bipartite_route_paths(n):
    assert_bipartite_accurate(weighted_path(n))
    assert_bipartite_accurate(simple_path(n))


def test_bipartite_route_rings_and_cubes():
    rng = np.random.default_rng(8)
    for n in range(4, 41, 2):
        assert_bipartite_accurate(even_ring(n, rng))
    for dim in range(1, 7):
        assert_bipartite_accurate(hypercube(dim))


@pytest.mark.parametrize("kind,size,k", [("ring", 12, 2), ("ring", 10, 3), ("cube", 4, 2)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bipartite_route_probe_graphs(kind, size, k, seed):
    assert_bipartite_accurate(probe_graph(kind, size, k, seed))


def test_bipartite_route_random_blocks():
    rng = np.random.default_rng(9)
    for p, q in [(5, 1), (9, 4), (30, 12), (7, 7), (25, 25)]:
        assert_bipartite_accurate(random_bipartite(rng, p, q))
        assert_bipartite_accurate(random_bipartite(rng, q, p))
    for p, q, rank in [(10, 6, 2), (8, 8, 3), (20, 20, 1), (40, 30, 5)]:
        assert_bipartite_accurate(random_bipartite(rng, p, q, rank))


def test_bipartite_route_disconnected_and_edgeless():
    # two path pieces, a cube and isolated vertices, shuffled
    rng = np.random.default_rng(10)
    a = np.zeros((44, 44))
    a[:9, :9] = weighted_path(9).adjacency
    a[9:13, 9:13] = simple_path(4).adjacency
    a[13:29, 13:29] = hypercube(4).adjacency
    order = rng.permutation(44)
    assert_bipartite_accurate(WeightedGraph(44, a[np.ix_(order, order)]))
    for n in (1, 5, 40):
        g = WeightedGraph(n, np.zeros((n, n)))
        assert_bipartite_accurate(g)
        vals, vecs = bipartite_eigh(g)
        assert np.array_equal(vals, np.zeros(n)) and np.array_equal(vecs, np.eye(n))


def test_bipartite_route_extreme_weights():
    rng = np.random.default_rng(11)
    big = np.finfo(float).max
    for scale in (1e150, 1e-150, 1e300, 1e-300):
        g = random_bipartite(rng, 12, 9)
        assert_bipartite_accurate(WeightedGraph(g.n, g.adjacency * scale))
    # float-maximum weights whose eigenvalues stay finite
    assert_bipartite_accurate(WeightedGraph(2, np.array([[0.0, big], [big, 0.0]])))
    assert_bipartite_accurate(WeightedGraph(3, weighted_path(3).adjacency * (big / 2.0)))
    assert_bipartite_accurate(WeightedGraph(40, even_ring(40, rng).adjacency * (big / 4.0)))
    # a star whose largest eigenvalue, sqrt(4) * max, is past the float range
    star = np.zeros((5, 5))
    star[0, 1:] = star[1:, 0] = big
    with pytest.raises(ConvergenceError, match="^eigenvalues overflow a float$"):
        bipartite_eigh(WeightedGraph(5, star))


def non_bipartite_graphs():
    rng = np.random.default_rng(13)
    odd_ring = even_ring(41, rng)
    looped = even_ring(40, rng).adjacency.copy()
    looped[7, 7] = 0.25
    mirror = symmetric_power(weighted_path(10), 3)
    pm = normalized_partition_matrix(mirror, mirror_partition(mirror, 10, 3))
    return [odd_ring, even_ring(5, rng), WeightedGraph(40, looped), quotient(mirror, pm)]


def test_non_bipartite_graphs_keep_the_dense_route():
    for g in non_bipartite_graphs():
        assert g.n >= pstlab.spectral._BIPARTITE_MIN or g.n == 5
        assert pstlab.spectral._bipartition(g) is None
        vals, vecs = eigh_matrix(g.adjacency)
        spec = eigh(g)
        assert spec.eigenvalues.tobytes() == vals.tobytes()
        assert spec.eigenvectors.tobytes() == pstlab.spectral._fix_signs(vecs).tobytes()


def test_small_graphs_keep_the_dense_route():
    # below the crossover a bipartite graph is solved as before, bytes and all
    for g in (weighted_path(9), simple_path(14), hypercube(5)):
        assert g.n < pstlab.spectral._BIPARTITE_MIN and pstlab.spectral._bipartition(g) is not None
        vals, vecs = eigh_matrix(g.adjacency)
        spec = eigh(g)
        assert spec.eigenvalues.tobytes() == vals.tobytes()
        assert spec.eigenvectors.tobytes() == pstlab.spectral._fix_signs(vecs).tobytes()


def test_bipartition_colours_every_component():
    g = random_bipartite(np.random.default_rng(14), 20, 15)
    side = pstlab.spectral._bipartition(g)
    # every edge joins the two sides, and the first vertex of each component is on the false side
    assert np.all(side[g._rows] != side[g._cols])
    component = pstlab.graph_core._components(g.n, g._rows, g._cols)
    firsts = np.unique(component, return_index=True)[1]
    assert not side[firsts].any()


@pytest.mark.parametrize("cap", [0, 1])
def test_bidiagonal_iteration_budget_message_matches_oracle(monkeypatch, cap):
    monkeypatch.setattr(pstlab.spectral, "_QL_ITERATION_CAP", cap)
    g = probe_graph("ring", 12, 2, seed=21)
    with pytest.raises(ConvergenceError, match=f"^bidiagonal QR left superdiagonal .* after {cap} steps$") as batched:
        bipartite_eigh(g)
    with pytest.raises(ConvergenceError) as oracle:
        oracle_bipartite_eigh(g)
    assert str(batched.value) == str(oracle.value)
    # nothing to iterate on: the edgeless graph and a single edge
    assert np.array_equal(bipartite_eigh(WeightedGraph(3, np.zeros((3, 3))))[0], np.zeros(3))
    assert np.array_equal(bipartite_eigh(simple_path(2))[0], [-1.0, 1.0])


# Operators and names that reach BLAS (or let einsum pick a route that does).
BLAS_TOKENS = {"@", "@=", "dot", "vdot", "matmul", "tensordot", "inner", "linalg", "optimize"}


def blas_tokens(func):
    """The BLAS_TOKENS in the code of func, its docstring, comments and strings left out."""
    source = textwrap.dedent(inspect.getsource(func))
    return {
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type in (tokenize.OP, tokenize.NAME) and token.string in BLAS_TOKENS
    }


def test_eigensolver_code_calls_no_blas():
    # the README's determinism promise: the bytes do not depend on the BLAS library or its threads
    spectral = pstlab.spectral
    solver = (
        spectral._reflector,
        spectral._accumulate,
        spectral._tridiagonalize,
        spectral._ql_implicit,
        spectral._rotate_rows,
        spectral.eigh_matrix,
        spectral._bidiagonalize,
        spectral._turn,
        spectral._bidiagonal_qr,
        spectral._bipartition,
        spectral._eigh_bipartite,
        spectral.eigh,
    )
    for func in solver:
        assert blas_tokens(func) == set(), func.__name__
    assert blas_tokens(spectral.evolve) == {"@"}  # the guard sees a product that is there


def test_eigh_matrix_memory_is_bounded():
    # the recorded rotations are flushed in blocks; holding all ~44k of them peaks near 8 MiB
    a = random_symmetric(np.random.default_rng(200), 200)
    tracemalloc.start()
    try:
        eigh_matrix(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_bipartite_eigh_memory_is_bounded():
    # about 1.6 MiB with the rotation record flushed in blocks; holding all of it peaks near 2.5 MiB
    g = random_bipartite(np.random.default_rng(201), 100, 100, density=0.5)
    tracemalloc.start()
    try:
        bipartite_eigh(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("n", range(2, 21))
def test_weighted_path_accuracy_is_norm_relative(n):
    a = weighted_path(n).adjacency
    spec = eigh(weighted_path(n))
    z, vals = spec.eigenvectors, spec.eigenvalues
    bound = 10.0 * n * EPS * np.linalg.norm(a, 2)
    assert np.linalg.norm(a @ z - z * vals[None, :], 2) <= bound
    assert np.linalg.norm(z.T @ z - np.eye(n), 2) <= bound


def test_tridiagonal_input_skips_householder():
    a = weighted_path(9).adjacency.copy()
    q = pstlab.spectral._tridiagonalize(a)
    assert np.array_equal(q, np.eye(9))
    assert np.array_equal(a, weighted_path(9).adjacency)


def test_sign_convention_deterministic():
    g = hypercube(3)
    first = eigh(g)
    second = eigh(g)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for j in range(first.n):
        col = first.eigenvectors[:, j]
        lead = int(np.argmax(np.abs(col)))
        assert col[lead] > 0.0


def test_evolve_identity_at_zero():
    spec = eigh(weighted_path(5))
    u = evolve(spec, 0.0)
    assert np.abs(u - np.eye(5)).max() <= 1e-15
    assert u.dtype == complex and not u.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_path_revival_phase(n):
    # At t = pi the weighted path returns to itself up to (-1)**(n-1).
    spec = eigh(weighted_path(n))
    gamma = is_periodic(spec, math.pi)
    assert gamma is not None
    expected = (-1.0) ** (n - 1)
    assert abs(gamma - expected) <= 1e-12


def test_transfer_amplitude_examples():
    spec = eigh(weighted_path(6))
    amp = transfer_amplitude(spec, 1, 6, math.pi / 2.0)
    assert abs(abs(amp) - 1.0) <= 1e-12
    assert abs(transfer_amplitude(spec, 1, 1, 0.0) - 1.0) <= 1e-15
    spec4 = eigh(weighted_path(4))
    # odd-distance targets get no amplitude at the transfer time
    assert abs(transfer_amplitude(spec4, 1, 3, math.pi / 2.0)) <= 1e-12


def test_transfer_amplitude_refuses_a_time_past_the_float_range():
    spec = eigh(weighted_path(3))
    with pytest.raises(PreconditionError, match="^a time times an eigenvalue overflows a float$"):
        transfer_amplitude(spec, 1, 3, 1e308)


def test_transfer_amplitude_keeps_its_phases_on_finite_times():
    # the guarded angles give the bytes of the unguarded exp(-1j * t * lambda)
    rng = np.random.default_rng(5)
    for n in (2, 5, 9):
        spec = eigh(weighted_path(n))
        z = spec.eigenvectors
        for t in rng.uniform(-50.0, 50.0, 20):
            u, v = (int(x) for x in rng.integers(1, n + 1, 2))
            expected = complex((z[v - 1] * z[u - 1]) @ np.exp(-1j * t * spec.eigenvalues))
            assert transfer_amplitude(spec, u, v, t) == expected


def test_transfer_amplitude_validates_vertices():
    spec = eigh(weighted_path(3))
    with pytest.raises(InvalidSizeError):
        transfer_amplitude(spec, 0, 2, 1.0)
    with pytest.raises(InvalidSizeError):
        transfer_amplitude(spec, 1, 4, 1.0)


def test_find_pst_pairs_weighted_path4():
    spec = eigh(weighted_path(4))
    pairs = find_pst_pairs(spec, math.pi / 2.0)
    assert [(p.u, p.v) for p in pairs] == [(1, 4), (2, 3)]
    for p in pairs:
        # single-walker transfer phase is (-i)**(n-1) = i for n = 4
        assert abs(p.phase - 1j) <= 1e-12
    assert find_pst_pairs(spec, math.pi / 4.0) == ()


def test_find_pst_pairs_negative_control():
    spec = eigh(simple_path(3))
    grid = [q * math.pi / 2**j for j in range(0, 7) for q in range(1, 2**j + 1, 2)]
    for t in grid:
        assert find_pst_pairs(spec, t) == ()


def test_p2_transfer_phase():
    spec = eigh(simple_path(2))
    pairs = find_pst_pairs(spec, math.pi / 2.0)
    assert len(pairs) == 1
    assert abs(pairs[0].phase - (-1j)) <= 1e-12


def test_is_periodic_negative():
    spec = eigh(weighted_path(4))
    assert is_periodic(spec, math.pi / 4.0) is None


def test_tolerance_validation():
    spec = eigh(weighted_path(3))
    for bad in (0.0, -1e-3, 0.5):
        with pytest.raises(PreconditionError):
            find_pst_pairs(spec, 1.0, tol=bad)
        with pytest.raises(PreconditionError):
            is_periodic(spec, 1.0, tol=bad)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_propagator_properties(n, t, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    spec_vals, _ = eigh_matrix(a)  # solver must not blow up on random input
    spec = eigh(WeightedGraph(n, a))
    u_t = evolve(spec, t)
    assert np.abs(u_t @ u_t.conj().T - np.eye(n)).max() <= PROP_TOL
    u_2t = evolve(spec, 2.0 * t)
    assert np.abs(u_t @ u_t - u_2t).max() <= PROP_TOL
    assert np.abs(evolve(spec, 0.0) - np.eye(n)).max() <= PROP_TOL
    assert spec_vals.size == n


def test_pst_implies_symmetric_amplitudes():
    spec = eigh(weighted_path(6))
    u = evolve(spec, math.pi / 2.0)
    assert np.abs(u - u.T).max() <= 1e-12


def _pst_pairs_loop(spec, t, tol):
    """The pair scan written out per pair: the oracle for find_pst_pairs."""
    u_mat = evolve(spec, t)
    pairs = []
    for u in range(spec.n - 1):
        for v in range(u + 1, spec.n):
            amp = u_mat[v, u]
            if abs(amp) >= 1.0 - tol:
                pairs.append((u + 1, v + 1, complex(amp)))
    return pairs


def test_find_pst_pairs_matches_pair_loop():
    rng = np.random.default_rng(7)
    graphs = [WeightedGraph(n, random_symmetric(rng, n)) for n in range(2, 9) for _ in range(6)]
    graphs += [weighted_path(n) for n in range(2, 13)] + [hypercube(dim) for dim in (3, 5)]
    times = [q * math.pi / 8.0 for q in range(1, 9)] + [0.37, 1.3]
    found = 0
    for g in graphs:
        spec = eigh(g)
        for t in times:
            for tol in (1e-9, 0.09):
                pairs = [(p.u, p.v, p.phase) for p in find_pst_pairs(spec, t, tol)]
                assert pairs == _pst_pairs_loop(spec, t, tol), (g.n, t, tol)
                found += len(pairs)
    assert found > 100
