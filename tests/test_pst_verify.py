"""End-to-end verification reports for many-walker transfer on weighted paths."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from pstlab import (
    InvalidSizeError,
    PreconditionError,
    ResourceCapError,
    WeightedGraph,
    conjecture_probe,
    eigh,
    evolve,
    find_pst_pairs,
    predicted_period_phase,
    predicted_transfer_phase,
    reflection_permutation,
    run_case,
    sweep,
    weighted_path,
)
from pstlab.pst_verify import _build_case, _hadamard_bound, _mirror_permutation, _unitarity_check
from pstlab.tonks import _minors

from conftest import cycle_graph


def test_predicted_transfer_phase_frozen():
    assert predicted_transfer_phase(4, 2) == 1
    assert predicted_transfer_phase(5, 2) == -1
    assert predicted_transfer_phase(6, 3) == -1j
    assert predicted_transfer_phase(7, 3) == 1
    assert predicted_transfer_phase(2, 1) == -1j
    assert predicted_transfer_phase(4, 1) == 1j


def test_predicted_period_phase_frozen():
    # e**(-i*pi*k*(k-n)) is a strict sign, the square of the transfer phase
    assert predicted_period_phase(4, 2) == 1
    assert predicted_period_phase(5, 2) == 1
    assert predicted_period_phase(6, 3) == -1
    assert predicted_period_phase(3, 1) == 1
    for n, k in [(4, 2), (5, 2), (6, 3), (7, 3), (5, 1)]:
        assert predicted_period_phase(n, k) == predicted_transfer_phase(n, k) ** 2


def test_single_walker_phase_matches_closed_form():
    for n in range(2, 9):
        expected = (-1j) ** (n - 1)
        assert abs(predicted_transfer_phase(n, 1) - expected) <= 1e-15


def test_mirror_permutation_small():
    perm = _mirror_permutation(4, 2)
    # ascending pairs on 4 sites: 12 13 14 23 24 34 -> 34 24 14 23 13 12
    assert list(perm) == [5, 4, 2, 3, 1, 0]


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (5, 1)])
def test_verifiers_green(n, k):
    report = run_case(n, k)
    assert report.error is None
    assert report.ok, [c for c in report.checks if not c.passed]


def test_run_case_merges_all_checks():
    report = run_case(5, 2)
    assert report.ok
    names = [c.name for c in report.checks]
    assert names == [
        "determinant-eigenbasis",
        "periodicity-at-pi",
        "unitarity",
        "transfer-modulus",
        "transfer-phase",
        "off-target",
        "expansion-sign-law",
        "unitarity",
        "mirror-equitable",
        "quotient-thinning-match",
        "quotient-thinning-alternation",
        "quotient-periodicity",
        "quotient-transport",
    ]
    assert abs(report.gamma_measured - report.gamma_predicted) <= 1e-8
    assert abs(report.gamma_predicted - (-1.0)) == 0.0


@pytest.mark.parametrize("n,k", [(n, k) for n in range(4, 8) for k in (2, 3)])
def test_run_case_diagonalizes_once(monkeypatch, n, k):
    # the n-vertex path is the only eigensolve; the mirror quotient is
    # certified by a residual bound, not diagonalized
    import pstlab.spectral

    real = pstlab.spectral.eigh_matrix
    dims = []

    def counting(a):
        dims.append(np.asarray(a).shape[0])
        return real(a)

    monkeypatch.setattr(pstlab.spectral, "eigh_matrix", counting)
    report = run_case(n, k)
    assert report.ok
    assert dims == [n]


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3), (9, 4)])
def test_run_case_assembles_no_hard_core_propagator(monkeypatch, n, k):
    # every amplitude is a k x k minor of the two n x n path propagators;
    # the only other walk is the mirror quotient's, smaller than C(n, k)
    import pstlab.pst_verify

    real = pstlab.pst_verify.evolve
    dims = []

    def counting(spec, t):
        dims.append(spec.n)
        return real(spec, t)

    monkeypatch.setattr(pstlab.pst_verify, "evolve", counting)
    report = run_case(n, k)
    assert report.ok
    assert dims[:2] == [n, n]
    assert max(dims[2:]) < math.comb(n, k)


def test_run_case_memory_holds_no_hard_core_propagator():
    # two complex C(12, 5) x C(12, 5) propagators and their U U^H products took 62 MiB
    tracemalloc.start()
    try:
        report = run_case(12, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak / 2**20 < 38.0


def test_run_case_checks_equitability_once(monkeypatch):
    # the Lemma 5 check builds the mirror quotient from the report it already holds
    import pstlab.partition
    import pstlab.pst_verify

    real = pstlab.partition.check_equitable
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return real(*args, **kwargs)

    monkeypatch.setattr(pstlab.partition, "check_equitable", counting)
    monkeypatch.setattr(pstlab.pst_verify, "check_equitable", counting)
    report = run_case(6, 3)
    assert report.ok
    assert calls == [20]


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 3)])
def test_run_case_gamma_is_first_mirror_amplitude(n, k):
    # the label (1, ..., k) transfers to its mirror, the last ascending label;
    # agreement of this U with the dense route is tested in test_tonks
    from pstlab import slater_decomposition

    report = run_case(n, k)
    u = evolve(slater_decomposition(eigh(weighted_path(n)), k), math.pi / 2.0)
    assert report.gamma_predicted == predicted_transfer_phase(n, k)
    assert abs(report.gamma_measured - u[-1, 0]) <= 1e-13


@pytest.mark.parametrize("n", range(2, 11))
def test_minors_and_bounds_match_dense_route(n):
    # the dense route assembles U(t) from the Slater basis; its own rounding
    # exceeds the exact Hadamard bound by up to 6e-16, hence the 1e-14 slack
    for k in range(1, n):
        case = _build_case(n, k, None)
        cols = np.arange(case.graph.n)
        u_half, u_full = evolve(case.spec, math.pi / 2.0), evolve(case.spec, math.pi)
        assert np.abs(case.mirror_amps - u_half[case.mirror, cols]).max() <= 1e-13, (n, k)
        diagonal = _minors(case.path_full, case.labels, case.labels)
        assert np.abs(diagonal - np.diag(u_full)).max() <= 1e-13, (n, k)

        off_target = u_half.copy()
        off_target[case.mirror, cols] = 0.0
        bound = _hadamard_bound(case.path_half, reflection_permutation(n), k)
        assert bound >= np.abs(off_target).max() - 1e-14, (n, k)
        off_diagonal = u_full - np.diag(np.diag(u_full))
        bound = _hadamard_bound(case.path_full, np.arange(n), k)
        assert bound >= np.abs(off_diagonal).max() - 1e-14, (n, k)
        for u, path in ((u_half, case.path_half), (u_full, case.path_full)):
            dev = np.abs(u @ u.conj().T - np.eye(case.graph.n)).max()
            assert _unitarity_check(path, k, "").value >= dev - 1e-14, (n, k)


def _skewed(g):
    # the middle weight off by 1e-6 keeps the mirror symmetry
    a = g.adjacency.copy()
    mid = g.n // 2
    a[mid - 1, mid] += 1e-6
    a[mid, mid - 1] += 1e-6
    return WeightedGraph(g.n, a)


def _skew_checked_graph(monkeypatch):
    # build the checked graph from a skewed path, while the decomposition
    # still comes from the true path
    import pstlab.pst_verify

    real = pstlab.pst_verify.symmetric_power
    monkeypatch.setattr(pstlab.pst_verify, "symmetric_power", lambda g, k, cap=None: real(_skewed(g), k, cap=cap))


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_transfer_bounds_fail_on_a_skewed_path(monkeypatch, n, k):
    # graph and decomposition both come from the skewed path, so only the
    # walk itself is off; transfer-phase stays under its tolerance at this size
    import pstlab.pst_verify

    real = pstlab.pst_verify.weighted_path
    monkeypatch.setattr(pstlab.pst_verify, "weighted_path", lambda n: _skewed(real(n)))
    report = run_case(n, k)
    assert report.error is None
    checks = {c.name: c for c in report.checks}
    assert checks["determinant-eigenbasis"].passed
    for name in ("off-target", "periodicity-at-pi"):
        assert not checks[name].passed, checks[name]


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_determinant_eigenbasis_fails_off_the_graph(monkeypatch, n, k):
    _skew_checked_graph(monkeypatch)
    report = run_case(n, k)
    assert report.error is None
    assert not report.ok
    check = report.checks[0]
    assert check.name == "determinant-eigenbasis"
    assert not check.passed
    assert check.value > 1e-8


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_quotient_thinning_match_fails_off_the_graph(monkeypatch, n, k):
    # the quotient comes from the skewed graph, the even Slater columns from
    # the true path: the residual bound must see the difference
    _skew_checked_graph(monkeypatch)
    report = run_case(n, k)
    assert report.error is None
    assert not report.ok
    (check,) = [c for c in report.checks if c.name == "quotient-thinning-match"]
    assert not check.passed
    assert check.value > 1e-8


def test_quotient_count_mismatch_fails_every_quotient_check(monkeypatch):
    # a quotient one vertex short of the even sector cannot be certified, and
    # the quotient-walk checks are reported as failed instead of dropped
    import pstlab.pst_verify

    real = pstlab.pst_verify._quotient_graph

    def truncated(g, pm):
        b = real(g, pm)
        return WeightedGraph(b.n - 1, b.adjacency[:-1, :-1])

    monkeypatch.setattr(pstlab.pst_verify, "_quotient_graph", truncated)
    report = run_case(5, 2)
    assert not report.ok
    checks = {c.name: c for c in report.checks}
    for name in ("quotient-thinning-match", "quotient-periodicity", "quotient-transport"):
        assert not checks[name].passed
        assert checks[name].value == 2.0
    assert checks["mirror-equitable"].passed


@pytest.mark.parametrize("n", range(2, 10))
def test_quotient_even_sector_matches_dense_route(n):
    # the dense eigensolve of the mirror quotient is the oracle for the even
    # Slater columns pushed down into it
    from pstlab import SpectralDecomposition, evolve, normalized_partition_matrix, orbit_partition
    from pstlab.partition import _quotient_graph
    from pstlab.pst_verify import _build_case

    for k in range(1, n):
        case = _build_case(n, k, None)
        pm = normalized_partition_matrix(case.graph, orbit_partition(case.graph, case.mirror))
        quot = _quotient_graph(case.graph, pm)
        z = case.spec.eigenvectors
        even = np.einsum("vj,vj->j", z[case.mirror, :], z) > 0.0
        lam_e = case.spec.eigenvalues[even]
        y = pm.q.T @ z[:, even]
        oracle = eigh(quot)
        assert np.abs(oracle.eigenvalues - lam_e).max() <= 1e-12
        t = math.pi / 2.0
        u_oracle = evolve(oracle, t)
        u_even = evolve(SpectralDecomposition(lam_e, y), t)
        assert np.abs(u_oracle - u_even).max() <= 1e-12


@pytest.mark.parametrize("n,k", [(3, 3), (4, 4), (4, 5), (1, 1), (4, 0)])
def test_run_case_outside_domain(n, k):
    # k = n leaves one zero-weight vertex, whose mirror quotient is undefined
    report = run_case(n, k)
    assert not report.ok
    assert report.checks == ()
    assert report.error.startswith("PreconditionError")


def test_run_case_refuses_before_allocating():
    # the dense weighted_path(3000) alone would be about 69 MiB
    tracemalloc.start()
    try:
        report = run_case(3000, 2, cap=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.error.startswith("ResourceCapError")
    assert "cap is 100" in report.error
    assert peak / 2**20 < 8.0


def test_report_schema():
    report = run_case(4, 2)
    doc = report.to_dict()
    assert set(doc) == {"case", "checks", "gamma_predicted", "gamma_measured", "runtime_s"}
    assert doc["case"] == {"family": "hc-path", "n": 4, "k": 2}
    for check in doc["checks"]:
        assert set(check) == {"name", "anchor", "pass", "value", "tol"}
        assert isinstance(check["pass"], bool)
    assert isinstance(doc["gamma_predicted"], list) and len(doc["gamma_predicted"]) == 2
    json.dumps(doc)  # schema must be serializable as-is


def test_report_error_capture():
    report = run_case(6, 3, cap=10)
    assert report.error is not None
    assert not report.ok
    assert report.checks == ()
    assert "error" in report.to_dict()


def test_run_case_refuses_a_long_path_before_building_it():
    # building the million-vertex path first took 139 MiB before symmetric_power refused it
    tracemalloc.start()
    try:
        report = run_case(10**6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.error == "ResourceCapError: symmetric power has 1000000 vertices, cap is 16384"
    assert peak / 2**20 < 1.0


def test_thinned_spectrum_5_2():
    # the mirror quotient of the 2-walker graph on 5 sites keeps exactly the
    # even-parity rungs of the ladder, here with their multiplicities
    from pstlab import mirror_partition, normalized_partition_matrix, quotient, symmetric_power

    sg = symmetric_power(weighted_path(5), 2)
    b = quotient(sg, normalized_partition_matrix(sg, mirror_partition(sg, 5, 2)))
    vals = eigh(b).eigenvalues
    assert np.abs(vals - np.array([-6.0, -2.0, -2.0, 2.0, 2.0, 6.0])).max() <= 1e-9


def test_sweep_orders_and_skips():
    reports = sweep((3, 5), (1, 2))
    cases = [(r.n, r.k) for r in reports]
    assert cases == [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
    assert all(r.ok for r in reports)
    # k >= n is skipped, full occupation included
    reports = sweep((2, 4), (1, 5))
    assert [(r.n, r.k) for r in reports] == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    assert all(r.ok for r in reports)
    assert sweep((3, 4), (4, 6)) == ()


def test_sweep_validation():
    with pytest.raises(PreconditionError):
        sweep((5, 3), (1, 1))
    with pytest.raises(PreconditionError):
        sweep((1, 4), (1, 1))
    with pytest.raises(PreconditionError):
        sweep((3, 4), (0, 2))
    # every case at n has at least n vertices, so n beyond the cap is refused up front
    with pytest.raises(ResourceCapError):
        sweep((3, 101), (1, 1), cap=100)
    assert [(r.n, r.k) for r in sweep((3, 5), (1, 1), cap=5)] == [(3, 1), (4, 1), (5, 1)]


def test_three_way_amplitude_agreement():
    # identical endpoints measured in the deleted power, the symmetric power
    # and the mirror quotient all agree at the transfer time
    from pstlab import (
        apply_deletion,
        cartesian_power,
        deletion_mask,
        evolve,
        mirror_partition,
        normalized_partition_matrix,
        quotient,
        symmetric_power,
    )

    n, k, t = 5, 2, math.pi / 2.0
    mask = deletion_mask(n, k)
    g_hc = apply_deletion(cartesian_power(weighted_path(n), k), mask)
    labels = mask.kept_labels()
    src = labels.index((1, 2))
    dst = labels.index((4, 5))
    amp_distinct = evolve(eigh(g_hc), t)[dst, src]

    sg = symmetric_power(weighted_path(n), k)
    amp_token = evolve(eigh(sg), t)[-1, 0]

    p = mirror_partition(sg, n, k)
    pm = normalized_partition_matrix(sg, p)
    b = quotient(sg, pm)
    u_b = evolve(eigh(b), t)
    c0 = int(p.cell_index[0])
    amp_quotient = u_b[c0, c0]

    assert abs(amp_distinct - amp_token) <= 1e-10
    assert abs(amp_token - amp_quotient) <= 1e-10
    assert abs(abs(amp_token) - 1.0) <= 1e-9


def test_conjecture_probe_weighted_path():
    report = conjecture_probe(weighted_path(5), 2)
    assert report.achieves_transfer
    assert report.best_modulus >= 1.0 - 1e-9
    assert math.isclose(report.best_time, math.pi / 2.0, abs_tol=1e-12)
    assert math.pi / 2.0 in report.single_pst_times
    assert report.times_scanned >= 64


def test_conjecture_probe_lists_an_extra_time_only_where_a_walker_transfers():
    # the 6-cycle has no single-walker transfer, on the grid or at t = 1
    ring = cycle_graph(6)
    assert find_pst_pairs(eigh(ring), 1.0) == ()
    grid_only = conjecture_probe(ring, 2)
    report = conjecture_probe(ring, 2, pst_time=1.0)
    assert report.single_pst_times == grid_only.single_pst_times == ()
    assert "no single-walker transfer found on the probe grid" in report.notes
    assert report.times_scanned == grid_only.times_scanned + 1
    # the weighted path transfers at 3 pi / 2, off the grid, and at pi / 2, on it, which is scanned once
    path_grid = conjecture_probe(weighted_path(5), 2)
    off_grid = conjecture_probe(weighted_path(5), 2, pst_time=1.5 * math.pi)
    assert off_grid.single_pst_times == path_grid.single_pst_times + (1.5 * math.pi,)
    on_grid = conjecture_probe(weighted_path(5), 2, pst_time=math.pi / 2.0)
    assert on_grid.single_pst_times == path_grid.single_pst_times
    assert on_grid.times_scanned == path_grid.times_scanned


def test_conjecture_probe_cycle_notes_components():
    report = conjecture_probe(cycle_graph(4), 2)
    assert not report.achieves_transfer
    assert any("component" in note for note in report.notes)
    doc = report.to_dict()
    json.dumps(doc)
    assert doc["n"] == 4 and doc["k"] == 2


def test_conjecture_probe_cap_reaches_the_component_check():
    # the 9**5 power labels exceed the default cap but not the one given
    report = conjecture_probe(cycle_graph(9), 5, cap=10**5)
    assert not any("size cap" in note for note in report.notes)
    assert any("expected 120 components for k=5, found 24" in note for note in report.notes)


def test_conjecture_probe_caps_the_kept_labels_not_the_power():
    # 12**4 = 20736 power labels exceed the default cap; the 11880 kept labels do not
    report = conjecture_probe(cycle_graph(12), 4)
    assert not any("size cap" in note for note in report.notes)
    assert any("components for k=4" in note for note in report.notes)


@pytest.mark.parametrize("k", [-1, 0, 5])
def test_conjecture_probe_refuses_walker_counts_outside_the_graph(k):
    with pytest.raises(InvalidSizeError):
        conjecture_probe(weighted_path(4), k)


def _eigenvalue_classes_loop(values):
    """Degenerate classes grouped against their first member: the oracle for the class ids."""
    groups = [[0]]
    for j in range(1, values.size):
        if float(values[j] - values[groups[-1][0]]) <= 1e-6:
            groups[-1].append(j)
        else:
            groups.append([j])
    return groups


def test_class_ids_match_grouping_loop():
    from pstlab.hardcore import _ascending
    from pstlab.pst_verify import _eigenvalue_classes

    for n in range(2, 13):
        single = eigh(weighted_path(n))
        for k in range(1, n):
            # the eigenvalues of slater_decomposition(single, k), without its determinants
            values = np.sort(single.eigenvalues[_ascending(n, k)].sum(axis=1), kind="stable")
            ids = _eigenvalue_classes(values)
            groups = _eigenvalue_classes_loop(values)
            assert [list(np.flatnonzero(ids == c)) for c in range(ids.max() + 1)] == groups, (n, k)


def _thinning_value_frobenius(case):
    """quotient-thinning-match as it was computed with Frobenius norms for E and Q."""
    from pstlab import normalized_partition_matrix, orbit_partition
    from pstlab.partition import _quotient_graph

    pm = normalized_partition_matrix(case.graph, orbit_partition(case.graph, case.mirror))
    quot = _quotient_graph(case.graph, pm).adjacency
    z, values = case.spec.eigenvectors, case.spec.eigenvalues
    even_overlap = np.einsum("vj,vj->j", z[case.mirror, :], z)
    survivors = []
    for cls in _eigenvalue_classes_loop(values):
        even_dim = round(float((1.0 + even_overlap[cls]).sum()) / 2.0)
        survivors.extend([float(values[cls].mean())] * even_dim)
    even = even_overlap > 0.0
    lam_e = values[even]
    y = pm.q.T @ z[:, even]
    residual = float(np.linalg.norm(quot @ y - y * lam_e))
    gram = float(np.linalg.norm(y.T @ y - np.eye(quot.shape[0])))
    scale = float(np.linalg.norm(quot)) + float(np.abs(lam_e).max())
    bound = math.sqrt(1.0 + gram) * residual + gram * scale
    return (
        bound
        + float(np.abs(np.array(sorted(survivors)) - lam_e).max())
        + float((1.0 - np.abs(even_overlap)).max())
    )


def test_thinning_bound_never_exceeds_frobenius_form():
    from pstlab.pst_verify import _build_case, _lemma5_and_theorem2

    for n in range(2, 11):
        for k in range(1, n):
            case = _build_case(n, k, None)
            checks = {c.name: c for c in _lemma5_and_theorem2(case)}
            assert checks["quotient-thinning-match"].value <= _thinning_value_frobenius(case), (n, k)
