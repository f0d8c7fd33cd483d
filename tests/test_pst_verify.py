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
    SpectralDecomposition,
    WeightedGraph,
    ascending_labels,
    conjecture_probe,
    eigh,
    evolve,
    find_pst_pairs,
    hypercube,
    predicted_period_phase,
    predicted_transfer_phase,
    reflection_permutation,
    run_case,
    sweep,
    symmetric_power,
    weighted_path,
)
from pstlab.hardcore import _ascending, _kept_table
from pstlab.pst_verify import (
    _build_case,
    _hadamard_bound,
    _mirror_permutation,
    _probe_grid,
    _theorem1,
    _unitarity_check,
)
from pstlab.spectral import PST_TOL, _PAIR_SLACK, _pair_scan
from pstlab.tonks import _compound, _ladder_steps, _minors

from conftest import cycle_graph, graph_from_edges, seeded_chain, seeded_cube, seeded_ring


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
    # the n-vertex path is the only decomposition, in closed form, and nothing
    # is eigensolved; the mirror quotient is certified by a residual bound
    solves = _eigensolves(monkeypatch)
    report = run_case(n, k)
    assert report.ok
    assert solves == [("_eigh_weighted_path", n)]


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3), (9, 4)])
def test_run_case_assembles_no_hard_core_propagator(monkeypatch, n, k):
    # every amplitude is a k x k minor of the two n x n path propagators, and
    # no other walk is assembled: the quotient walk is read off its eigenpairs;
    # the path's eigh builds the only SpectralDecomposition, since the case
    # reads the compound as it is
    import pstlab.pst_verify
    import pstlab.spectral

    real_evolve = pstlab.pst_verify.evolve
    real_init = pstlab.spectral.SpectralDecomposition.__post_init__
    dims, built = [], []

    def counting(spec, t):
        dims.append(spec.n)
        return real_evolve(spec, t)

    def counting_init(self):
        real_init(self)
        built.append(self.n)

    monkeypatch.setattr(pstlab.pst_verify, "evolve", counting)
    monkeypatch.setattr(pstlab.spectral.SpectralDecomposition, "__post_init__", counting_init)
    report = run_case(n, k)
    assert report.ok
    assert dims == [n, n]
    assert built == [n]


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


def test_build_case_memory_holds_one_compound():
    # sorting, signing and copying the compound into a decomposition peaked at 45.7 MiB
    tracemalloc.start()
    try:
        case = _build_case(13, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 38.0
    assert case.z.shape == (1716, 1716)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_build_case_reads_the_path_compound_unchanged(n):
    # the chain route solves the path in vertex order with no wrap sign: the
    # compound and mode sums of the path's own decomposition, byte for byte
    single = eigh(weighted_path(n))
    for k in range(1, n):
        case = _build_case(n, k)
        labels = _ascending(n, k)
        assert case.path_spec.eigenvectors.tobytes() == single.eigenvectors.tobytes()
        assert case.z.tobytes() == _compound(single.eigenvectors, k).tobytes()
        assert case.values.tobytes() == single.eigenvalues[labels].sum(axis=1).tobytes()


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
    report = run_case(n, k)
    case = _build_case(n, k)
    u = evolve(SpectralDecomposition(case.values, case.z), math.pi / 2.0)
    assert report.gamma_predicted == predicted_transfer_phase(n, k)
    assert abs(report.gamma_measured - u[-1, 0]) <= 1e-13


@pytest.mark.parametrize("n", range(2, 11))
def test_minors_and_bounds_match_dense_route(n):
    # the dense route assembles U(t) from the Slater basis; its own rounding
    # exceeds the exact Hadamard bound by up to 6e-16, hence the 1e-14 slack
    for k in range(1, n):
        case = _build_case(n, k)
        cols = np.arange(case.graph.n)
        spec = SpectralDecomposition(case.values, case.z)
        u_half, u_full = evolve(spec, math.pi / 2.0), evolve(spec, math.pi)
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
    monkeypatch.setattr(pstlab.pst_verify, "symmetric_power", lambda g, k: real(_skewed(g), k))


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


@pytest.mark.parametrize("n", range(2, 11))
def test_quotient_even_sector_matches_dense_route(n):
    # the dense eigensolve of the mirror quotient is the oracle for the even
    # Slater columns pushed down into it, and the dense walk assembled from
    # those columns is the oracle for the quotient-walk checks: the
    # periodicity bound lies above its distance from gamma I, and the
    # transport value is its diagonal's distance from the mirror amplitudes
    from pstlab import normalized_partition_matrix, orbit_partition
    from pstlab.partition import _quotient_graph
    from pstlab.pst_verify import _build_case, _lemma5_and_theorem2

    for k in range(1, n):
        case = _build_case(n, k)
        part = orbit_partition(case.graph, case.mirror)
        pm = normalized_partition_matrix(case.graph, part)
        quot = _quotient_graph(case.graph, pm)
        z = case.z
        even = np.einsum("vj,vj->j", z[case.mirror, :], z) > 0.0
        lam_e = case.values[even]
        y = pm.q.T @ z[:, even]
        oracle = eigh(quot)
        assert np.abs(oracle.eigenvalues - np.sort(lam_e)).max() <= 1e-12
        t = math.pi / 2.0
        u_oracle = evolve(oracle, t)
        u_even = evolve(SpectralDecomposition(lam_e, y), t)
        assert np.abs(u_oracle - u_even).max() <= 1e-12

        checks = {c.name: c for c in _lemma5_and_theorem2(case)}
        gamma = predicted_transfer_phase(n, k)
        dense_period = float(np.abs(u_even - gamma * np.eye(quot.n)).max())
        assert checks["quotient-periodicity"].value >= dense_period, (n, k)
        _, first = np.unique(part.cell_index, return_index=True)
        dense_transport = float(np.abs(np.diag(u_even) - case.mirror_amps[first]).max())
        assert abs(checks["quotient-transport"].value - dense_transport) <= 1e-15, (n, k)


def test_quotient_periodicity_fails_on_the_conjugate_phase(monkeypatch):
    # at (6, 3) the two phase conventions differ by -1, so every eigenvalue
    # factor of the quotient walk lies 2 away from the conjugate phase
    import pstlab.pst_verify

    real = pstlab.pst_verify.predicted_transfer_phase
    monkeypatch.setattr(pstlab.pst_verify, "predicted_transfer_phase", lambda n, k: real(n, k).conjugate())
    report = run_case(6, 3)
    (check,) = [c for c in report.checks if c.name == "quotient-periodicity"]
    assert not check.passed
    assert check.value >= 2.0


def test_lemma5_block_memory_holds_no_quotient_walk():
    # the complex m_q x m_q quotient walk and its distance from gamma I peaked at 63.3 MiB
    from pstlab.pst_verify import _lemma5_and_theorem2

    case = _build_case(13, 6)
    tracemalloc.start()
    try:
        checks = _lemma5_and_theorem2(case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak / 2**20 < 57.0


@pytest.mark.parametrize("n,k", [(3, 3), (4, 4), (4, 5), (1, 1), (4, 0)])
def test_run_case_outside_domain(n, k):
    # k = n leaves one zero-weight vertex, whose mirror quotient is undefined
    report = run_case(n, k)
    assert not report.ok
    assert report.checks == ()
    assert report.error.startswith("PreconditionError")


def test_run_case_refuses_before_allocating(monkeypatch):
    # C(3000, 2) = 4498500 labels; the refusal comes before the path is built
    monkeypatch.setenv("PSTLAB_CAP", "100")
    tracemalloc.start()
    try:
        report = run_case(3000, 2)
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


def test_report_error_capture(monkeypatch):
    monkeypatch.setenv("PSTLAB_CAP", "10")
    report = run_case(6, 3)
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


def test_sweep_validation(monkeypatch):
    with pytest.raises(PreconditionError):
        sweep((5, 3), (1, 1))
    with pytest.raises(PreconditionError):
        sweep((1, 4), (1, 1))
    with pytest.raises(PreconditionError):
        sweep((3, 4), (0, 2))
    # every case at n has at least n vertices, so n beyond the cap is refused up front
    monkeypatch.setenv("PSTLAB_CAP", "100")
    with pytest.raises(ResourceCapError):
        sweep((3, 101), (1, 1))
    monkeypatch.setenv("PSTLAB_CAP", "5")
    assert [(r.n, r.k) for r in sweep((3, 5), (1, 1))] == [(3, 1), (4, 1), (5, 1)]


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
    labels = list(map(tuple, (_kept_table(n, k) + 1).tolist()))
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


def test_conjecture_probe_cap_reaches_the_component_check(monkeypatch):
    # a cap of exactly the 9*8*7*6*5 = 15120 kept labels lets the component check run, though
    # the 9**5 = 59049 power labels exceed it: the cap counts the kept labels, and reaching it is allowed
    monkeypatch.setenv("PSTLAB_CAP", str(15120))
    report = conjecture_probe(cycle_graph(9), 5)
    assert not any("size cap" in note for note in report.notes)
    assert any("expected 120 components for k=5, found 24" in note for note in report.notes)


def test_conjecture_probe_notes_a_deleted_power_past_the_cap(monkeypatch):
    # the C(8, 4) = 70 ascending labels fit the cap of 100, the 1680 kept labels do not
    monkeypatch.setenv("PSTLAB_CAP", "100")
    report = conjecture_probe(cycle_graph(8), 4)
    assert "deleted power graph exceeds the size cap; component structure unchecked" in report.notes
    assert report.times_scanned >= 64


def test_conjecture_probe_caps_the_kept_labels_not_the_power():
    # 12**4 = 20736 power labels exceed the default cap; the 11880 kept labels do not
    report = conjecture_probe(cycle_graph(12), 4)
    assert not any("size cap" in note for note in report.notes)
    assert any("components for k=4" in note for note in report.notes)


@pytest.mark.parametrize("k", [-1, 0, 5])
def test_conjecture_probe_refuses_walker_counts_outside_the_graph(k):
    with pytest.raises(InvalidSizeError):
        conjecture_probe(weighted_path(4), k)


# The scan conjecture_probe replaced, kept as the oracle of its pair scan: one
# propagator per time, and a row-major argmax that keeps the earliest time.


PROBE_CASES = [
    ("ring-C12", seeded_ring(12, 31), 2),
    ("ring-C10", seeded_ring(10, 32), 3),
    ("cube-Q4", seeded_cube(4, 33), 2),
    ("ring-C9", seeded_ring(9, 34), 2),
    *((f"path-{n}", weighted_path(n), 2) for n in range(5, 9)),
    ("cycle-4", cycle_graph(4), 2),
    ("ring-C9-shuffled", seeded_chain(9, 35, cycle=True), 3),
    ("ring-C8-looped", seeded_chain(8, 36, cycle=True, loops=True), 2),
]


def _probe_times(pst_time):
    times = _probe_grid()
    return times if pst_time is None else sorted(set(times) | {pst_time})


def _probe_oracle(g, k, pst_time):
    """Single-walker times, best (modulus, time, i, j) and the best's margin over its runner-up."""
    times = _probe_times(pst_time)
    spec_single = eigh(g)
    single = tuple(t for t in times if find_pst_pairs(spec_single, t))
    spec = eigh(symmetric_power(g, k))
    best = (0.0, 0.0, 0, 0)
    per_pair = []
    upper = np.triu_indices(spec.n, 1)
    for t in times:
        u = np.abs(evolve(spec, t))
        np.fill_diagonal(u, 0.0)
        i, j = divmod(int(np.argmax(u)), spec.n)
        if u[i, j] > best[0]:
            best = (float(u[i, j]), float(t), i, j)
        per_pair.append(np.maximum(u, u.T)[upper])
    ranked = np.sort(np.concatenate(per_pair))
    return single, best, float(ranked[-1] - ranked[-2])


@pytest.mark.parametrize("pst_time", [None, 1.0])
@pytest.mark.parametrize("name,g,k", PROBE_CASES, ids=[c[0] for c in PROBE_CASES])
def test_conjecture_probe_matches_the_dense_scan(name, g, k, pst_time):
    single, (modulus, when, i, j), margin = _probe_oracle(g, k, pst_time)
    report = conjecture_probe(g, k, pst_time=pst_time)
    labels = ascending_labels(g.n, k)
    assert abs(report.best_modulus - modulus) <= 1e-13
    assert report.single_pst_times == single
    assert report.times_scanned == len(_probe_times(pst_time))
    m = math.comb(g.n, k)
    assert report.pairs_total == m * (m - 1) // 2
    assert 0 < report.pairs_scanned <= report.pairs_total
    if margin > 1e-12:
        assert report.best_time == when
        assert {report.best_source, report.best_target} == {labels[i], labels[j]}


def test_conjecture_probe_breaks_exact_ties_as_the_dense_scan():
    # on an exactly symmetric |U| the largest modulus, then the earliest time, then the
    # smallest (i, j) wins, and the report names labels[i] the target: the dense argmax's pick
    z = np.full((4, 4), 0.5) * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    spec = SpectralDecomposition(np.array([-2.0, 0.0, 0.0, 2.0]), z)
    times = np.array(_probe_grid())
    transfers, best, _ = _pair_scan(spec, times)
    u = np.array([np.abs(evolve(spec, t)) for t in times])
    for slice_ in u:
        np.fill_diagonal(slice_, 0.0)
    assert np.array_equal(u, u.transpose(0, 2, 1))
    t, i, j = np.unravel_index(int(np.argmax(u)), u.shape)
    assert best == (float(u[t, i, j]), t, i, j)
    assert np.array_equal(transfers, (u >= 1.0 - PST_TOL).any(axis=(1, 2)))


def test_conjecture_probe_assembles_no_propagator(monkeypatch):
    import pstlab.pst_verify
    import pstlab.spectral

    calls = []

    def counting(spec, t):
        calls.append(spec.n)
        raise AssertionError("evolve called")

    monkeypatch.setattr(pstlab.pst_verify, "evolve", counting)
    monkeypatch.setattr(pstlab.spectral, "evolve", counting)
    for _, g, k in PROBE_CASES[:3]:
        conjecture_probe(g, k, pst_time=1.0)
    assert calls == []


def _eigensolves(monkeypatch):
    """Record ``(route, vertex count)`` for every call of the three eigensolver routes, the closed form included."""
    import pstlab.spectral

    calls = []
    for route in ("_eigh_weighted_path", "eigh_matrix", "_eigh_bipartite"):
        solve = getattr(pstlab.spectral, route)

        def recording(first, *rest, route=route, solve=solve):
            size = first if isinstance(first, int) else first.n if isinstance(first, WeightedGraph) else first.shape[0]
            calls.append((route, size))
            return solve(first, *rest)

        monkeypatch.setattr(pstlab.spectral, route, recording)
    return calls


def _single_route(g):
    """The route of g's own n x n solve: the closed form exactly when g stores weighted_path(g.n)'s bytes."""
    path = weighted_path(g.n)
    same = all(getattr(g, name).tobytes() == getattr(path, name).tobytes() for name in ("_rows", "_cols", "_weights"))
    return "_eigh_weighted_path" if same else "eigh_matrix"


CHAIN_CASES = [case for case in PROBE_CASES if not case[0].startswith("cube")]


@pytest.mark.parametrize("name,g,k", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
def test_conjecture_probe_solves_chains_as_free_fermions(name, g, k, monkeypatch):
    # the single walker's n x n solve serves the free-fermion modes, and only
    # the signed wrap hop of a cycle at even k needs a second; none of size C(n, k)
    solves = _eigensolves(monkeypatch)
    report = conjecture_probe(g, k, pst_time=1.0)
    # a weighted path's single walker comes in closed form; a cycle's twisted walker by QL
    single = ("_eigh_weighted_path" if name.startswith("path") else "eigh_matrix", g.n)
    assert solves == [single] + [("eigh_matrix", g.n)] * (name.startswith(("ring", "cycle")) and k % 2 == 0)
    shape = "cycle order, wrap hop signed (-1)^(k-1) = " + ("-1" if k % 2 == 0 else "+1")
    if name.startswith("path"):
        shape = "path order"
    assert f"hard-core walk solved as free fermions along the {shape}" in report.notes


@pytest.mark.parametrize("g,k", [(weighted_path(5), 3), (seeded_chain(6, 37, cycle=True), 4), (cycle_graph(4), 4)])
def test_conjecture_probe_solves_chains_past_half_filling_densely(g, k, monkeypatch):
    # past n / 2 walkers the compound's middle levels would outgrow C(n, k)**2
    # entries, so the hard-core graph itself is solved
    solves = _eigensolves(monkeypatch)
    report = conjecture_probe(g, k)
    assert solves == [(_single_route(g), g.n), ("eigh_matrix", math.comb(g.n, k))]
    assert not any("free fermions" in note for note in report.notes)


@pytest.mark.parametrize(
    "g",
    [hypercube(4), weighted_path(9), *(seeded_chain(7, seed, cycle=True, signed=True, loops=True) for seed in range(3))]
    + [graph_from_edges(5, [(1, 2, -0.7), (2, 3, 1.2), (1, 3, 0.4), (3, 4, -1.1), (4, 5, 0.9), (2, 2, 0.3)])]
    + [graph_from_edges(6, [(1, 4, 1.0), (4, 6, -0.5), (2, 6, 0.8), (2, 5, 1.3), (3, 3, -0.6), (3, 5, 0.2)])],
    ids=["cube-Q4", "path-9", "ring-0", "ring-1", "ring-2", "triangle-tail", "signed-path"],
)
def test_conjecture_probe_reads_one_walker_off_the_single_scan(g, monkeypatch):
    # symmetric_power(g, 1) is g array for array, so k = 1 solves and scans g once
    power = symmetric_power(g, 1)
    assert [power.n, *map(bytes, (power._rows, power._cols, power._weights))] == [
        g.n, *map(bytes, (g._rows, g._cols, g._weights))
    ]
    import pstlab.pst_verify

    _, best, scanned = _pair_scan(eigh(g), np.array(_probe_grid()))
    scans = []
    monkeypatch.setattr(pstlab.pst_verify, "_pair_scan", lambda spec, times: scans.append(spec.n) or _pair_scan(spec, times))
    solves = _eigensolves(monkeypatch)
    report = conjecture_probe(g, 1)
    assert solves == [(_single_route(g), g.n)]
    assert scans == [g.n]
    labels = ascending_labels(g.n, 1)
    assert (report.best_modulus, report.best_target, report.best_source) == (best[0], labels[best[2]], labels[best[3]])
    assert report.best_time == _probe_grid()[best[1]]
    assert (report.pairs_scanned, report.pairs_total) == (scanned, g.n * (g.n - 1) // 2)


@pytest.mark.parametrize("name,g,k", PROBE_CASES, ids=[c[0] for c in PROBE_CASES])
def test_pair_bound_and_slack_cover_every_propagator_modulus(name, g, k):
    # sum_l |z_il| |z_jl| bounds |U_ij(t)| at every t, and the slack covers the rounding:
    # on the weighted paths the transfer amplitudes reach their bound of 1 to the last bits
    spec = eigh(symmetric_power(g, k))
    size = np.abs(spec.eigenvectors)
    bound = size @ size.T + _PAIR_SLACK * spec.n * np.finfo(float).eps
    for t in _probe_grid():
        assert (np.abs(evolve(spec, t)) <= bound).all(), t


@pytest.mark.parametrize("name,g,k", PROBE_CASES, ids=[c[0] for c in PROBE_CASES])
def test_pair_scan_stops_at_the_first_block_the_bound_rules_out(name, g, k):
    # every pair whose bound reaches min(best, 1 - PST_TOL) is scanned, and no whole block
    # past the pairs whose bound reaches it less twice the slack
    spec = eigh(symmetric_power(g, k))
    _, (modulus, _, _, _), scanned = _pair_scan(spec, np.array(_probe_grid()))
    size = np.abs(spec.eigenvectors)
    pairs = (size @ size.T)[np.triu_indices(spec.n, 1)]
    target = min(modulus, 1.0 - PST_TOL)
    slack = _PAIR_SLACK * spec.n * np.finfo(float).eps
    assert scanned >= int((pairs >= target).sum())
    assert scanned <= -(-int((pairs >= target - 2 * slack).sum()) // spec.n) * spec.n


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
    # the class ids are the integer ladder steps of the mode tuples: on the
    # sorted computed spectrum they are exactly the gap grouping
    from pstlab.hardcore import _ascending

    for n in range(2, 13):
        single = eigh(weighted_path(n))
        for k in range(1, n):
            labels = _ascending(n, k)
            # the sorted eigenvalues of the compound basis, without its determinants
            sums = single.eigenvalues[labels].sum(axis=1)
            order = np.argsort(sums, kind="stable")
            values, ids = sums[order], _ladder_steps(labels)[order]
            groups = _eigenvalue_classes_loop(values)
            assert [list(np.flatnonzero(ids == c)) for c in range(ids.max() + 1)] == groups, (n, k)


@pytest.mark.parametrize("n", range(2, 13))
def test_case_class_ids_follow_the_sorted_spectrum(n):
    # columns stay in mode order; two share a ladder step exactly when their
    # eigenvalues lie within the old class gap of 1e-6, the steps count up
    # the ladder, and each column lies within 1e-12 of its step's mean
    for k in range(1, n):
        case = _build_case(n, k)
        ids, values = _ladder_steps(case.labels), case.values
        close = np.abs(values[:, None] - values[None, :]) <= 1e-6
        assert np.array_equal(ids[:, None] == ids[None, :], close), (n, k)
        below = values[:, None] < values[None, :] - 1e-6
        assert np.array_equal(ids[:, None] < ids[None, :], below), (n, k)
        means = np.bincount(ids, weights=values) / np.bincount(ids)
        assert np.abs(means[ids] - values).max() <= 1e-12, (n, k)
        assert np.abs(values - (k * (k - n) + 2 * ids)).max() <= 1e-12, (n, k)
        assert sorted(set(ids.tolist())) == list(range(k * (n - k) + 1)), (n, k)


def _sign_law_value_projector_weights(case):
    """expansion-sign-law as it was computed: m x m projector weights of the
    Slater basis and alternating signs of the gap-grouped eigenvalue classes."""
    order = np.argsort(case.values, kind="stable")
    groups = _eigenvalue_classes_loop(case.values[order])
    class_ids = np.empty(case.values.size, dtype=np.int64)
    for c, cls in enumerate(groups):
        class_ids[order[cls]] = c
    lam = np.array([case.values[order[cls]].mean() for cls in groups])
    global_sign = -1.0 if (case.k * (case.n - 1)) % 2 else 1.0
    sign = global_sign * (1.0 - 2.0 * (np.rint((lam - lam[0]) / 2.0) % 2))
    coef = (np.exp(-1j * (math.pi / 2.0) * lam) * sign)[class_ids]
    rebuilt = (case.z * case.z) @ coef
    return float(np.abs(rebuilt - case.mirror_amps).max())


@pytest.mark.parametrize("n", range(2, 12))
def test_sign_law_matches_projector_weight_route(n):
    # the Cauchy-Binet minors regroup the per-class coefficients per mode
    for k in range(1, n):
        case = _build_case(n, k)
        checks = {c.name: c for c in _theorem1(case)}
        assert abs(checks["expansion-sign-law"].value - _sign_law_value_projector_weights(case)) <= 1e-13, (n, k)


def test_theorem1_memory_holds_no_m_by_m_array():
    # the m x m projector weights C_k(Z) * C_k(Z) peaked at 22.6 MiB here
    case = _build_case(13, 6)
    tracemalloc.start()
    try:
        checks = _theorem1(case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak / 2**20 < 4.0


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3)])
def test_expansion_sign_law_fails_on_a_path_without_mirror_symmetry(monkeypatch, n, k):
    # a first edge off by 1e-2 breaks the mirror parities the sign law reads,
    # while the mirror minors still come from the same path; both routes move
    # off the mirror at second order, about 2e-5 apart here
    import pstlab.pst_verify

    real = pstlab.pst_verify.weighted_path

    def lopsided(n):
        a = real(n).adjacency.copy()
        a[0, 1] += 1e-2
        a[1, 0] += 1e-2
        return WeightedGraph(n, a)

    monkeypatch.setattr(pstlab.pst_verify, "weighted_path", lopsided)
    (check,) = [c for c in _theorem1(_build_case(n, k)) if c.name == "expansion-sign-law"]
    assert not check.passed
    assert check.value > 1e-6


def _thinning_value_frobenius(case):
    """quotient-thinning-match as it was computed with Frobenius norms for E and Q."""
    from pstlab import normalized_partition_matrix, orbit_partition
    from pstlab.partition import _quotient_graph

    pm = normalized_partition_matrix(case.graph, orbit_partition(case.graph, case.mirror))
    quot = _quotient_graph(case.graph, pm).adjacency
    # the consecutive class grouping below needs the columns in ascending eigenvalue order
    order = np.argsort(case.values, kind="stable")
    z, values = case.z[:, order], case.values[order]
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
            case = _build_case(n, k)
            checks = {c.name: c for c in _lemma5_and_theorem2(case)}
            assert checks["quotient-thinning-match"].value <= _thinning_value_frobenius(case), (n, k)
