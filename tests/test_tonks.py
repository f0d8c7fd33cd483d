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
    ModeTuple,
    OccupationLabel,
    PreconditionError,
    ResourceCapError,
    SignedDiagonal,
    all_mode_tuples,
    apply_deletion,
    cartesian_power,
    decompose_components,
    deletion_mask,
    eigh,
    evolve,
    fermion_state,
    hc_spectrum,
    parity_sign_rule,
    project_identical,
    slater_decomposition,
    symmetric_power,
    tg_boson_state,
    unit_antisymmetry,
    verify_corollary1,
    weighted_path,
)
from pstlab import tonks
from pstlab.hardcore import _ascending, _kept_graph, _kept_table
from pstlab.tonks import _compound, _minors, _projected_states


def build_chain(n, k, modes):
    spec = eigh(weighted_path(n))
    mask = deletion_mask(n, k)
    g_hc = apply_deletion(cartesian_power(weighted_path(n), k), mask)
    signed = unit_antisymmetry(decompose_components(g_hc, n, k))
    fermion = fermion_state(spec, ModeTuple(modes))
    boson = tg_boson_state(fermion, signed, mask)
    return spec, mask, g_hc, fermion, boson


def test_mode_tuple_validation():
    with pytest.raises(PreconditionError):
        ModeTuple((1, 1))
    with pytest.raises(PreconditionError):
        ModeTuple((2, 1))
    with pytest.raises(PreconditionError):
        ModeTuple((-1, 0))
    with pytest.raises(InvalidSizeError):
        ModeTuple(())
    m = ModeTuple((0, 2, 3))
    assert m.k == 3 and m.a == 5


def test_all_mode_tuples():
    tuples = all_mode_tuples(4, 2)
    assert len(tuples) == 6
    assert tuples[0].modes == (0, 1)
    assert tuples[-1].modes == (2, 3)


def test_fermion_state_basics():
    spec, mask, _, fermion, _ = build_chain(4, 2, (0, 1))
    assert fermion.basis == "power"
    assert fermion.norm == pytest.approx(1.0, abs=1e-12)
    amps = fermion.amplitudes
    for i, j in itertools.product(range(4), repeat=2):
        a_ij = amps[OccupationLabel((i + 1, j + 1), 4).index]
        a_ji = amps[OccupationLabel((j + 1, i + 1), 4).index]
        assert a_ij == pytest.approx(-a_ji, abs=1e-14)
        if i == j:
            assert abs(a_ij) <= 1e-14


def test_fermion_state_collisions_are_exact_zeros():
    # reference route: one determinant per power label, collisions included
    n, k = 6, 3
    spec = eigh(weighted_path(n))
    mask = deletion_mask(n, k)
    digits = np.array(list(itertools.product(range(n), repeat=k)))  # row-major power labels
    for modes in all_mode_tuples(n, k)[::3]:
        amps = fermion_state(spec, modes).amplitudes
        slater = spec.eigenvectors[:, list(modes.modes)]
        oracle = np.linalg.det(slater[digits, :]) / math.sqrt(math.factorial(k))
        assert amps[mask.keep].tobytes() == oracle[mask.keep].tobytes()
        collisions = amps[~mask.keep]
        assert np.all(collisions == 0.0) and not np.signbit(collisions).any()


def test_fermion_mode_out_of_range():
    spec = eigh(weighted_path(3))
    with pytest.raises(PreconditionError):
        fermion_state(spec, ModeTuple((0, 3)))


def test_tg_boson_is_symmetric():
    _, mask, _, _, boson = build_chain(4, 2, (0, 2))
    labels = mask.kept_labels()
    amp = dict(zip(labels, boson.amplitudes))
    for lab in labels:
        swapped = (lab[1], lab[0])
        assert amp[lab] == pytest.approx(amp[swapped], abs=1e-13)
    assert boson.norm == pytest.approx(1.0, abs=1e-12)


def test_tg_boson_is_eigenvector():
    for modes in all_mode_tuples(4, 2):
        _, mask, g_hc, _, boson = build_chain(4, 2, modes.modes)
        lam = sum(-3.0 + 2.0 * m for m in modes.modes)
        residual = np.abs(g_hc.adjacency @ boson.amplitudes - lam * boson.amplitudes).max()
        assert residual <= 1e-10


def test_projected_states_orthonormal_eigenbasis():
    n, k = 5, 2
    spec = eigh(weighted_path(n))
    mask = deletion_mask(n, k)
    g_hc = apply_deletion(cartesian_power(weighted_path(n), k), mask)
    signed = unit_antisymmetry(decompose_components(g_hc, n, k))
    sg = symmetric_power(weighted_path(n), k)
    columns = []
    lams = []
    for modes in all_mode_tuples(n, k):
        boson = tg_boson_state(fermion_state(spec, modes), signed, mask)
        ident = project_identical(boson, mask)
        columns.append(ident.amplitudes)
        lams.append(sum(-(n - 1.0) + 2.0 * m for m in modes.modes))
    z = np.column_stack(columns)
    assert np.abs(z.T @ z - np.eye(len(lams))).max() <= 1e-10
    residual = np.abs(sg.adjacency @ z - z * np.array(lams)[None, :]).max()
    assert residual <= 1e-10


def test_project_identical_requires_kept_basis():
    spec, mask, _, fermion, _ = build_chain(4, 2, (0, 1))
    with pytest.raises(PreconditionError):
        project_identical(fermion, mask)


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
    assert parity_sign_rule(ModeTuple((0, 1)), 2) == 1
    assert parity_sign_rule(ModeTuple((0, 2)), 2) == -1
    assert parity_sign_rule(ModeTuple((1, 2)), 2) == 1
    assert parity_sign_rule(ModeTuple((0, 1, 2)), 3) == 1


def test_parity_sign_alternates_with_energy():
    n, k = 6, 3
    base = min(m.a for m in all_mode_tuples(n, k))
    for modes in all_mode_tuples(n, k):
        expected = (-1) ** (modes.a - base) * parity_sign_rule(all_mode_tuples(n, k)[0], k)
        assert parity_sign_rule(modes, k) == expected


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
        fermion_state(eigh(weighted_path(4)), ModeTuple((0, 1)))


@pytest.mark.parametrize("n", range(2, 8))
def test_projected_states_match_per_tuple_pipeline(n, monkeypatch):
    # the public per-tuple route is the oracle for the batched determinant pass;
    # its fermion states span all n**k power labels, past the default size cap at k = n
    monkeypatch.setenv("PSTLAB_CAP", str(n**n))
    spec = eigh(weighted_path(n))
    for k in range(1, n + 1):
        mask, table = deletion_mask(n, k), _kept_table(n, k)
        signed = unit_antisymmetry(decompose_components(_kept_graph(weighted_path(n), table), n, k))
        batched = _projected_states(spec, table, signed)
        tuples = all_mode_tuples(n, k)
        assert batched.shape == (math.comb(n, k), len(tuples))
        for col, modes in enumerate(tuples):
            single = project_identical(tg_boson_state(fermion_state(spec, modes), signed, mask), mask)
            assert np.abs(batched[:, col] - single.amplitudes).max() <= 1e-14, (n, k, modes.modes)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3)])
def test_project_identical_matches_cell_loop(n, k):
    # the scatter adds amplitudes in kept order, like the plain loop over cells
    spec = eigh(weighted_path(n))
    mask = deletion_mask(n, k)
    g_hc = apply_deletion(cartesian_power(weighted_path(n), k), mask)
    signed = unit_antisymmetry(decompose_components(g_hc, n, k))
    boson = tg_boson_state(fermion_state(spec, ModeTuple(tuple(range(1, k + 1)))), signed, mask)
    labels = list(itertools.combinations(range(1, n + 1), k))
    expected = np.zeros(len(labels))
    for amp, label in zip(boson.amplitudes, mask.kept_labels()):
        expected[labels.index(tuple(sorted(label)))] += amp
    expected /= math.sqrt(math.factorial(k))
    projected = project_identical(boson, mask)
    assert projected.basis == "identical"
    assert np.array_equal(projected.amplitudes, expected)


def test_cell_map_built_once_per_mask():
    mask = deletion_mask(6, 3)
    cells = mask._cells
    assert mask._cells is cells
    assert not cells.flags.writeable
    labels = list(itertools.combinations(range(1, 7), 3))
    assert cells.tolist() == [labels.index(tuple(sorted(label))) for label in mask.kept_labels()]


def test_cell_order_built_once_per_mask():
    mask = deletion_mask(6, 3)
    order = mask._cell_order
    assert mask._cell_order is order
    assert not order.flags.writeable
    # cell by cell, k! members each, kept order inside a cell
    cells = mask._cells[order]
    assert np.array_equal(cells, np.repeat(np.arange(math.comb(6, 3)), 6))
    assert all(np.all(np.diff(order[cells == c]) > 0) for c in range(math.comb(6, 3)))


@pytest.mark.parametrize("n,k", [(6, 6), (7, 6), (7, 7)])
def test_projected_amplitudes_match_sorted_label_determinant(n, k, monkeypatch):
    # k! kept terms per cell: a sequential cell sum drifted 5.7e-14 from det Z[X, L] at (7, 7)
    monkeypatch.setenv("PSTLAB_CAP", str(n**n))
    spec = eigh(weighted_path(n))
    mask, table = deletion_mask(n, k), _kept_table(n, k)
    signed = unit_antisymmetry(decompose_components(_kept_graph(weighted_path(n), table), n, k))
    labels = _ascending(n, k)
    batched = _projected_states(spec, table, signed)
    for col, modes in enumerate(all_mode_tuples(n, k)):
        exact = np.linalg.det(spec.eigenvectors[labels][:, :, list(modes.modes)])
        single = project_identical(tg_boson_state(fermion_state(spec, modes), signed, mask), mask)
        assert np.abs(single.amplitudes - exact).max() <= 1e-15, (n, k, modes.modes)
        assert np.abs(batched[:, col] - exact).max() <= 1e-15, (n, k, modes.modes)


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
    mask = deletion_mask(decomp.n, decomp.k)
    members = np.flatnonzero(mask._cells == mask._cells[len(signs) // 2])
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
    # the per-tuple reference route still goes through the patched determinant
    fermion_state(eigh(weighted_path(4)), ModeTuple((0, 1)))
    assert calls
