"""Eigensolver accuracy and propagator algebra.

numpy.linalg serves as the independent oracle for eigenvalues; the package
itself never calls it for decompositions.
"""

import math
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
    assert_eigh_accurate(symmetric_power(hypercube(dim), k, allow_non_path=True).adjacency)


def test_eigh_matrix_small_and_trivial_inputs():
    assert_eigh_accurate(np.array([[2.5]]))
    assert_eigh_accurate(np.zeros((4, 4)))
    assert_eigh_accurate(np.diag([3.0, -1.0, 2.0, -1.0]))
    assert_eigh_accurate(np.array([[0.0, 1e-300], [1e-300, 0.0]]))
    huge = random_symmetric(np.random.default_rng(3), 6) * 1e300  # squares overflow unscaled
    assert_eigh_accurate(huge)
    assert_eigh_accurate(random_symmetric(np.random.default_rng(4), 6) * 1e-300)  # squares underflow
    assert eigh_matrix(np.zeros((0, 0)))[0].size == 0


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


def probe_style_graph(kind, size, k, seed):
    """Hard-core graph of a ring C_size or a cube Q_size with seeded weights in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    if kind == "ring":
        n, pairs = size, [(v, (v + 1) % size) for v in range(size)]
    else:
        n, pairs = 2**size, [(v, v ^ (1 << b)) for v in range(2**size) for b in range(size) if v < v ^ (1 << b)]
    a = np.zeros((n, n))
    for u, v in pairs:
        a[u, v] = a[v, u] = rng.uniform(0.5, 1.5)
    return symmetric_power(WeightedGraph(n, a), k, allow_non_path=True).adjacency


@pytest.mark.parametrize("m", range(1, 131))
def test_wave_rotations_match_oracle_random(m):
    assert_matches_oracle(random_symmetric(np.random.default_rng(1000 + m), m))


@pytest.mark.parametrize("kind,size,k", [("ring", 12, 2), ("ring", 10, 3), ("cube", 4, 2)])
def test_wave_rotations_match_oracle_probe_graphs(kind, size, k):
    assert_matches_oracle(probe_style_graph(kind, size, k, seed=21))


def test_wave_rotations_match_oracle_structured():
    # the exact zero eigenspace of the cube's hard-core power, weighted paths, the zero matrix
    assert_matches_oracle(symmetric_power(hypercube(4), 2, allow_non_path=True).adjacency)
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


@pytest.mark.parametrize("cap", [0, 1])
def test_iteration_budget_message_matches_oracle(monkeypatch, cap):
    monkeypatch.setattr(pstlab.spectral, "_QL_ITERATION_CAP", cap)
    a = random_symmetric(np.random.default_rng(2), 5)
    with pytest.raises(ConvergenceError) as batched:
        eigh_matrix(a)
    with pytest.raises(ConvergenceError) as oracle:
        oracle_eigh_matrix(a)
    assert str(batched.value) == str(oracle.value)


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
