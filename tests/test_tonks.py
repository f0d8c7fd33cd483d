"""Determinant states, their hard-core projections and the many-body spectrum."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstlab import (
    InvalidSizeError,
    ResourceCapError,
    SignedDiagonal,
    decompose_components,
    eigh,
    evolve,
    hc_spectrum,
    slater_decomposition,
    symmetric_power,
    unit_antisymmetry,
    verify_corollary1,
    weighted_path,
)
from pstlab import tonks
from pstlab.hardcore import _ascending, _kept_graph, _kept_table, _mirror_permutation
from pstlab.tonks import _compound, _minors, _projected_states


def kept_bosons(spec, table, signed):
    """Oracle: det Z[x, L] times signs[x], kept label x of ``table`` by ascending mode tuple L.

    Column L is sqrt(k!) times the Tonks-Girardeau state of the modes L on the kept labels.
    """
    modes = _ascending(spec.n, table.shape[1])
    rows, cols = np.repeat(table, len(modes), axis=0), np.tile(modes, (len(table), 1))
    return _minors(spec.eigenvectors, rows, cols).reshape(len(table), len(modes)) * signed.signs[:, None]


def cell_sums(bosons, table):
    """Oracle: each ascending cell's k! rows of ``bosons`` summed pairwise, over k!.

    One row per mode tuple and cell after the reshape, so numpy sums its k!
    terms pairwise; a sequential sum misses det Z[X, L] by more than 1e-15 at (7, 7).
    """
    k_fact = math.factorial(table.shape[1])
    cells = np.unique(np.sort(table, axis=1), axis=0, return_inverse=True)[1].ravel()
    grouped = bosons[np.argsort(cells, kind="stable")].T.reshape(-1, k_fact)
    return grouped.sum(axis=1).reshape(bosons.shape[1], -1).T / k_fact


def deleted_chain(n, k):
    """Eigenbasis of the n-vertex path, kept table, deleted graph and its component signs."""
    path, table = weighted_path(n), _kept_table(n, k)
    g_hc = _kept_graph(path, table)
    return eigh(path), table, g_hc, unit_antisymmetry(decompose_components(g_hc, n, k))


def test_fermion_state_basics():
    # a Slater determinant is antisymmetric under walker exchange and vanishes where two walkers meet
    z = eigh(weighted_path(4)).eigenvectors
    labels = np.array(list(itertools.product(range(4), repeat=2)))
    modes = np.broadcast_to([0, 1], labels.shape)
    amps = _minors(z, labels, modes)
    assert np.abs(amps + _minors(z, labels[:, ::-1], modes)).max() <= 1e-14
    assert np.abs(amps[labels[:, 0] == labels[:, 1]]).max() <= 1e-14
    assert np.linalg.norm(amps) / math.sqrt(2.0) == pytest.approx(1.0, abs=1e-12)


def test_tg_boson_is_symmetric():
    spec, table, _, signed = deleted_chain(4, 2)
    boson = kept_bosons(spec, table, signed)[:, 1] / math.sqrt(2.0)  # modes (0, 2)
    amp = dict(zip(map(tuple, table.tolist()), boson))
    for lab in amp:
        assert amp[lab] == pytest.approx(amp[lab[::-1]], abs=1e-13)
    assert np.linalg.norm(boson) == pytest.approx(1.0, abs=1e-12)


def test_tg_boson_is_eigenvector():
    spec, table, g_hc, signed = deleted_chain(4, 2)
    bosons = kept_bosons(spec, table, signed)
    lams = (-3.0 + 2.0 * _ascending(4, 2)).sum(axis=1)
    assert np.abs(g_hc.adjacency @ bosons - bosons * lams).max() <= 1e-10


def test_projected_states_orthonormal_eigenbasis():
    n, k = 5, 2
    spec, table, _, signed = deleted_chain(n, k)
    z = cell_sums(kept_bosons(spec, table, signed), table)
    lams = (-(n - 1.0) + 2.0 * _ascending(n, k)).sum(axis=1)
    assert np.abs(z.T @ z - np.eye(len(lams))).max() <= 1e-10
    residual = np.abs(symmetric_power(weighted_path(n), k).adjacency @ z - z * lams).max()
    assert residual <= 1e-10


def test_hc_spectrum_4_2():
    assert hc_spectrum(4, 2) == ((-4.0, 1), (-2.0, 1), (0.0, 2), (2.0, 1), (4.0, 1))


def test_hc_spectrum_enumeration_oracle():
    for n, k in [(4, 2), (5, 2), (5, 3), (6, 3), (7, 2)]:
        ladder = hc_spectrum(n, k)
        # independent enumeration: sums over mode combinations
        from collections import Counter

        counts = Counter(
            sum(-(n - 1) + 2 * m for m in combo)
            for combo in itertools.combinations(range(n), k)
        )
        assert ladder == tuple(sorted((float(v), c) for v, c in counts.items()))
        assert sum(c for _, c in ladder) == math.comb(n, k)


def test_hc_spectrum_matches_eigensolver():
    n, k = 5, 2
    vals = eigh(symmetric_power(weighted_path(n), k)).eigenvalues
    flat = np.concatenate([[v] * c for v, c in hc_spectrum(n, k)])
    assert np.abs(vals - flat).max() <= 1e-9


def test_parity_sign_rule_values():
    # C_k(J Z) = C_k(J) C_k(Z): column L has parity (-1)**(k (k - 1) / 2)
    # times the single-walker parities of the modes in L
    for n, k in [(4, 2), (5, 3), (6, 3), (7, 4)]:
        z = eigh(weighted_path(n)).eigenvectors
        single = np.einsum("vj,vj->j", z[::-1], z)
        compound = _compound(z, k)
        parity = np.einsum("vj,vj->j", compound[_mirror_permutation(n, k)], compound)
        expected = (-1.0) ** (k * (k - 1) // 2) * np.prod(np.sign(single)[_ascending(n, k)], axis=1)
        assert np.abs(parity - expected).max() <= 1e-12, (n, k)


def test_parity_sign_alternates_with_energy():
    # Slater column L has mirror parity (-1)**(k (n - 1)) at the bottom tuple,
    # flipping with each step of sum(L)
    for n, k in [(4, 2), (5, 2), (6, 3), (7, 3), (7, 4)]:
        z = _compound(eigh(weighted_path(n)).eigenvectors, k)
        parity = np.einsum("vj,vj->j", z[_mirror_permutation(n, k)], z)
        steps = _ascending(n, k).sum(axis=1) - k * (k - 1) // 2
        expected = (-1.0) ** (k * (n - 1) + steps)
        assert np.abs(parity - expected).max() <= 1e-12, (n, k)


def test_verify_corollary1_grid():
    from pstlab import verify_corollary1

    for n, k in [(3, 2), (4, 2), (5, 2), (5, 3), (6, 2)]:
        assert verify_corollary1(n, k) <= 1e-8


@functools.lru_cache(maxsize=None)
def dense_and_slater(n, k):
    # the dense route is the oracle: one eigensolve of the whole C(n, k)-vertex graph
    dense = eigh(symmetric_power(weighted_path(n), k))
    return dense, slater_decomposition(eigh(weighted_path(n)), k)


def assert_routes_agree(n, k, times):
    dense, slater = dense_and_slater(n, k)
    assert np.abs(slater.eigenvalues - dense.eigenvalues).max() <= 1e-12
    # walkers on a path never cross, so entry (Y, X) is the minor det U_1(t)[Y, X]
    labels = _ascending(n, k)
    rows, cols = np.repeat(labels, labels.shape[0], axis=0), np.tile(labels, (labels.shape[0], 1))
    for t in times:
        u_dense = evolve(dense, t)
        u_slater = evolve(slater, t)
        assert np.abs(u_slater - u_dense).max() <= 1e-12, (n, k, t)
        compound = _minors(evolve(eigh(weighted_path(n)), t), rows, cols).reshape(u_slater.shape)
        assert np.abs(compound - u_slater).max() <= 1e-13, (n, k, t)


@pytest.mark.parametrize("n", range(2, 11))
def test_slater_matches_dense_route(n):
    for k in range(1, n):
        assert_routes_agree(n, k, (math.pi / 2.0, math.pi))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_slater_matches_dense_route_random_time(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    t = data.draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    assert_routes_agree(n, k, (t,))


def test_slater_decomposition_basis():
    # columns are sorted by eigenvalue, orthonormal, with the sign convention
    spec = slater_decomposition(eigh(weighted_path(7)), 3)
    assert spec.n == math.comb(7, 3)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
    z = spec.eigenvectors
    assert np.abs(z.T @ z - np.eye(spec.n)).max() <= 1e-12
    lead = np.argmax(np.abs(z), axis=0)
    assert np.all(z[lead, np.arange(spec.n)] > 0.0)
    flat = np.concatenate([[v] * c for v, c in hc_spectrum(7, 3)])
    assert np.abs(spec.eigenvalues - flat).max() <= 1e-12


def test_slater_decomposition_full_occupation_and_validation():
    single = eigh(weighted_path(4))
    full = slater_decomposition(single, 4)
    assert full.eigenvectors.shape == (1, 1)
    assert full.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    assert full.eigenvectors[0, 0] == pytest.approx(1.0, abs=1e-12)
    for k in (0, 5):
        with pytest.raises(InvalidSizeError):
            slater_decomposition(single, k)


def test_slater_decomposition_memory_is_blocked():
    # an unblocked (m, k, m, k) gather would take about 63 MB at (12, 4)
    single = eigh(weighted_path(12))
    tracemalloc.start()
    try:
        slater_decomposition(single, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 8.0


def test_verify_corollary1_memory_skips_the_power_graph():
    # the dense deleted power via the 4096-vertex Kronecker power peaked near 386 MiB
    tracemalloc.start()
    try:
        residual = verify_corollary1(8, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak / 2**20 < 96.0


def test_verify_corollary1_memory_stays_on_kept_labels():
    # the dense 3024 x 3024 kept graph and its thresholded copy peaked near 149 MiB
    tracemalloc.start()
    try:
        residual = verify_corollary1(9, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak / 2**20 < 24.0


def test_verify_corollary1_caps_the_kept_labels_not_the_power():
    # 12**4 = 20736 power labels exceed the default cap; the 11880 kept labels do not
    assert verify_corollary1(12, 4) <= 1e-12
    with pytest.raises(ResourceCapError, match="30240 kept labels"):
        verify_corollary1(10, 5)


def test_kept_label_routes_build_no_mask(monkeypatch):
    from pstlab import conjecture_probe, hardcore, pst_verify, run_case

    def refuse(*args, **kwargs):
        raise AssertionError("deletion_mask called")

    # pst_verify binds no deletion_mask; the patch would catch one bound later
    for module in (hardcore, tonks, pst_verify):
        monkeypatch.setattr(module, "deletion_mask", refuse, raising=False)
    assert verify_corollary1(7, 3) <= 1e-12
    assert run_case(7, 3).ok
    assert conjecture_probe(weighted_path(5), 2).achieves_transfer
    with pytest.raises(AssertionError):
        hardcore.deletion_mask(4, 2)


@pytest.mark.parametrize("n", range(2, 8))
def test_projected_states_match_per_tuple_pipeline(n):
    # one determinant per kept label and mode tuple, cell sums pairwise, is the oracle for the compound
    for k in range(1, n + 1):
        spec, table, _, signed = deleted_chain(n, k)
        batched = _projected_states(spec, table, signed)
        oracle = cell_sums(kept_bosons(spec, table, signed), table)
        assert batched.shape == oracle.shape == (math.comb(n, k), math.comb(n, k))
        assert np.abs(batched - oracle).max() <= 1e-14, (n, k)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3)])
def test_project_identical_matches_cell_loop(n, k):
    # a plain loop over the kept labels adds each signed determinant into its ascending cell
    spec, table, _, signed = deleted_chain(n, k)
    bosons = kept_bosons(spec, table, signed)
    labels = list(itertools.combinations(range(n), k))
    expected = np.zeros((len(labels), bosons.shape[1]))
    for amps, label in zip(bosons, table.tolist()):
        expected[labels.index(tuple(sorted(label)))] += amps
    expected /= math.factorial(k)
    assert np.abs(_projected_states(spec, table, signed) - expected).max() <= 1e-14


@pytest.mark.parametrize("n,k", [(6, 6), (7, 6), (7, 7)])
def test_projected_amplitudes_match_sorted_label_determinant(n, k):
    # k! kept terms per cell: a sequential cell sum drifted 5.7e-14 from det Z[X, L] at (7, 7)
    spec, table, _, signed = deleted_chain(n, k)
    labels = _ascending(n, k)
    exact = np.stack([np.linalg.det(spec.eigenvectors[labels][:, :, list(modes)]) for modes in labels], axis=1)
    oracle = cell_sums(kept_bosons(spec, table, signed), table)
    assert np.abs(oracle - exact).max() <= 1e-15, (n, k)
    assert np.abs(_projected_states(spec, table, signed) - exact).max() <= 1e-15, (n, k)


def _random_orthogonal(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def compound_by_minors(z, k):
    """Oracle: each entry det z[X, L] as its own minor, a block of columns at a time."""
    labels = _ascending(z.shape[0], k)
    m = labels.shape[0]
    out = np.empty((m, m))
    step = max(1, 2**16 // (m * k * k))
    for start in range(0, m, step):
        cols = labels[start : start + step]
        rows = np.repeat(labels, cols.shape[0], axis=0)
        out[:, start : start + step] = _minors(z, rows, np.tile(cols, (m, 1))).reshape(m, cols.shape[0])
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_compound_matches_per_entry_determinants(n):
    matrices = [eigh(weighted_path(n)).eigenvectors] if n >= 2 else []
    if n <= 8:
        matrices += [_random_orthogonal(n, seed) for seed in range(3)]
    for z in matrices:
        for k in range(1, n + 1):
            labels = _ascending(n, k)
            compound = _compound(z, k)
            assert compound.shape == (labels.shape[0], labels.shape[0])
            assert np.abs(compound - compound_by_minors(z, k)).max() <= 1e-14, (n, k)


def _tampered_signs(tamper):
    def build(decomp):
        signed = unit_antisymmetry(decomp)
        signs = signed.signs.copy()
        tamper(signs, decomp)
        return SignedDiagonal(signs, signed.component_signs)

    return build


def _flip_one(signs, decomp):
    signs[len(signs) // 2] *= -1.0


def _shuffle_one_cell(signs, decomp):
    # the members of one cell take each other's signs, rolled by one
    multisets = np.sort(decomp.labels, axis=1)
    members = np.flatnonzero((multisets == multisets[len(signs) // 2]).all(axis=1))
    signs[members] = np.roll(signs[members], 1)


@pytest.mark.parametrize("tamper", [_flip_one, _shuffle_one_cell])
@pytest.mark.parametrize("n,k", [(5, 2), (6, 3)])
def test_verify_corollary1_fails_on_wrong_component_sign(n, k, tamper, monkeypatch):
    assert verify_corollary1(n, k) <= 1e-12
    monkeypatch.setattr(tonks, "unit_antisymmetry", _tampered_signs(tamper))
    assert verify_corollary1(n, k) > 1e-8


def test_eigenbasis_routes_take_no_per_entry_determinant(monkeypatch):
    calls = []
    det = np.linalg.det

    def counting_det(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    slater_decomposition(eigh(weighted_path(9)), 4)
    assert verify_corollary1(7, 3) <= 1e-12
    assert calls == []
    # the per-minor route still goes through the patched determinant
    _minors(np.eye(2), np.array([[0, 1]]), np.array([[0, 1]]))
    assert calls
