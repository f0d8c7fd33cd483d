"""Weighted equitable partition machinery, exercised over the fixture zoo."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from pstlab import (
    DegeneratePartitionError,
    FormatError,
    NotEquitableError,
    Partition,
    PreconditionError,
    WeightedGraph,
    check_equitable,
    eigh,
    hypercube,
    load_graph,
    load_partition,
    max_eigenvalue_preservation,
    normalized_partition_matrix,
    orbit_partition,
    qqt_eigenvalue_check,
    quotient,
    quotient_spectrum_subset,
    reflection_permutation,
    save_graph,
    singleton_evolution_check,
    symmetric_power,
    verify_theorem_equivalences,
    weighted_path,
)

from pstlab.hardcore import _mirror_permutation
from pstlab.partition import _automorphism_deviation, _omega, _quotient_graph

from conftest import graph_from_edges, hamming_partition, mirror_path_partition


def test_vertex_weight_examples():
    # omega(v), the Euclidean norm of the adjacency column of v
    g = weighted_path(4)
    assert _omega(g)[0] == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert _omega(g)[1] == pytest.approx(math.sqrt(7.0), abs=1e-15)
    isolated = graph_from_edges(3, [(1, 2, 1.0)])
    assert _omega(isolated)[2] == 0.0


def test_partition_validation():
    with pytest.raises(PreconditionError):
        Partition(3, ((1, 2), (2, 3)))
    with pytest.raises(PreconditionError):
        Partition(3, ((1, 2),))
    with pytest.raises(PreconditionError):
        Partition(3, ((1, 2, 3), ()))
    with pytest.raises(PreconditionError):
        Partition(3, ((1, 2), (4,)))
    with pytest.raises(PreconditionError, match=r"vertices \[2, 3, 4, 5, 6\] and 4 more$"):
        Partition(10, ((1,),))
    p = Partition(3, ((3, 1), (2,)))
    assert p.cells == ((1, 3), (2,))  # members sorted inside each cell
    assert p.m == 2
    assert list(p.cell_index) == [0, 1, 0]


def test_q_entries_hypercube_hamming():
    g = hypercube(3)
    pm = normalized_partition_matrix(g, hamming_partition(3))
    vals = sorted(set(round(float(x), 12) for x in pm.q.ravel() if x != 0.0))
    assert vals == [round(1.0 / math.sqrt(3.0), 12), 1.0]


def test_q_entries_mirror_path():
    g = weighted_path(4)
    pm = normalized_partition_matrix(g, mirror_path_partition(4))
    nz = pm.q[pm.q != 0.0]
    assert np.abs(nz - 1.0 / math.sqrt(2.0)).max() <= 1e-15


def test_q_orthonormal_columns_across_zoo(partition_zoo):
    for name, g, p, _ in partition_zoo:
        pm = normalized_partition_matrix(g, p)
        dev = np.abs(pm.q.T @ pm.q - np.eye(pm.m)).max()
        assert dev <= 1e-12, name


def test_degenerate_cell_rejected():
    g = graph_from_edges(3, [(1, 2, 1.0)])
    with pytest.raises(DegeneratePartitionError):
        normalized_partition_matrix(g, Partition(3, ((1, 2), (3,))))


def test_check_equitable_matches_zoo_expectations(partition_zoo):
    for name, g, p, expected in partition_zoo:
        report = check_equitable(g, p)
        assert report.equitable == expected, name
        if expected:
            assert report.max_spread <= 1e-10, name
        else:
            assert report.max_spread > 1e-10, name
            assert 1 <= report.worst_vertex <= g.n
            assert 1 <= report.worst_cell <= p.m
            assert 1 <= report.worst_target_cell <= p.m


def test_four_way_equivalence_across_zoo(partition_zoo):
    for name, g, p, expected in partition_zoo:
        rep = verify_theorem_equivalences(g, p)
        assert rep.agree, name
        assert rep.equitable == expected, name
        assert rep.column_space_invariant == expected, name
        assert rep.projector_commutes == expected, name
        assert rep.intertwiner_exists == expected, name


def test_qqt_projector_spectrum(partition_zoo):
    for name, g, p, _ in partition_zoo:
        pm = normalized_partition_matrix(g, p)
        assert qqt_eigenvalue_check(pm), name


def test_quotient_of_hypercube_is_weighted_path():
    for dim in (3, 4):
        g = hypercube(dim)
        pm = normalized_partition_matrix(g, hamming_partition(dim))
        b = quotient(g, pm)
        assert np.abs(b.adjacency - weighted_path(dim + 1).adjacency).max() <= 1e-12


def test_quotient_unweighted_geometric_mean():
    # For a regular unweighted graph the quotient entry is sqrt(d_ij * d_ji).
    g = hypercube(3)
    pm = normalized_partition_matrix(g, hamming_partition(3))
    b = quotient(g, pm)
    assert b.adjacency[0, 1] == pytest.approx(math.sqrt(3.0 * 1.0), abs=1e-12)
    assert b.adjacency[1, 2] == pytest.approx(math.sqrt(2.0 * 2.0), abs=1e-12)


def test_quotient_rejects_non_equitable():
    g = weighted_path(4)
    pm = normalized_partition_matrix(g, Partition(4, ((1, 2), (3, 4))))
    with pytest.raises(NotEquitableError) as err:
        quotient(g, pm)
    assert "cell" in str(err.value)


def test_quotient_spectrum_subset(partition_zoo):
    for name, g, p, expected in partition_zoo:
        if not expected:
            continue
        pm = normalized_partition_matrix(g, p)
        assert quotient_spectrum_subset(g, pm), name


def test_eigenvector_lift(partition_zoo):
    # Quotient eigenvectors lift through Q to eigenvectors of the parent.
    for name, g, p, expected in partition_zoo:
        if not expected:
            continue
        pm = normalized_partition_matrix(g, p)
        b = quotient(g, pm)
        vals, vecs = eigh(b).eigenvalues, eigh(b).eigenvectors
        lifted = pm.q @ vecs
        residual = np.abs(g.adjacency @ lifted - lifted * vals[None, :]).max()
        assert residual <= 1e-9, name


def test_max_eigenvalue_preservation():
    g = hypercube(3)
    pm = normalized_partition_matrix(g, hamming_partition(3))
    assert max_eigenvalue_preservation(g, pm)
    g4 = weighted_path(4)
    assert max_eigenvalue_preservation(g4, normalized_partition_matrix(g4, mirror_path_partition(4)))


def test_max_eigenvalue_preconditions():
    neg = graph_from_edges(2, [(1, 2, -1.0)])
    with pytest.raises(PreconditionError):
        max_eigenvalue_preservation(neg, normalized_partition_matrix(neg, Partition(2, ((1,), (2,)))))
    disconnected = graph_from_edges(4, [(1, 2, 1.0), (3, 4, 1.0)])
    pm = normalized_partition_matrix(disconnected, Partition(4, ((1,), (2,), (3,), (4,))))
    with pytest.raises(PreconditionError):
        max_eigenvalue_preservation(disconnected, pm)


def test_singleton_evolution_endpoints():
    g = hypercube(3)
    pm = normalized_partition_matrix(g, hamming_partition(3))
    for t in (0.3, math.pi / 2.0, 1.7):
        assert singleton_evolution_check(g, pm, 1, 8, t) <= 1e-10


def test_singleton_evolution_requires_singletons():
    g = hypercube(3)
    pm = normalized_partition_matrix(g, hamming_partition(3))
    with pytest.raises(PreconditionError):
        singleton_evolution_check(g, pm, 1, 2, 0.5)


def test_orbit_partition_reflection():
    g = weighted_path(4)
    p = orbit_partition(g, reflection_permutation(4))
    assert p.cells == ((1, 4), (2, 3))
    p5 = orbit_partition(weighted_path(5), reflection_permutation(5))
    assert p5.cells == ((1, 5), (2, 4), (3,))


def test_orbit_partition_identity():
    g = weighted_path(3)
    assert orbit_partition(g, np.arange(3)).cells == ((1,), (2,), (3,))


def test_orbit_partition_rejects_non_automorphism():
    g = weighted_path(3)  # weights sqrt(2), sqrt(2): swapping 1,2 breaks it
    perm = np.array([1, 0, 2])
    g_asym = graph_from_edges(3, [(1, 2, 1.0), (2, 3, 2.0)])
    with pytest.raises(PreconditionError):
        orbit_partition(g_asym, perm)
    with pytest.raises(PreconditionError):
        orbit_partition(g, np.array([0, 0, 1]))
    with pytest.raises(PreconditionError):
        orbit_partition(g, np.array([0, 1]))


def test_partition_round_trip():
    p = Partition(5, ((1, 5), (2, 4), (3,)))
    text = json.dumps({"n": p.n, "cells": [list(cell) for cell in p.cells]})
    assert load_partition(text) == p


def test_load_partition_rejects_malformed():
    bad_docs = [
        '{"n": 3}',
        '{"cells": [[1, 2, 3]]}',
        '{"n": 3, "cells": [[1, 2], [2, 3]]}',
        '{"n": 3, "cells": [[1, 2]]}',
        '{"n": 3, "cells": [[1, 2], [3]], "extra": 1}',
        '{"n": 3, "cells": [[1, 2], [3.5]]}',
        '{"n": 3, "cells": "nope"}',
        '{"n": true, "cells": [[1]]}',
        "not json at all",
    ]
    for doc in bad_docs:
        with pytest.raises(FormatError):
            load_partition(doc)


def test_report_b_shape_and_values():
    # report.b holds the directed cell means; the symmetric quotient comes
    # from quotient(). For the hypercube the means are the neighbour counts.
    g = hypercube(3)
    report = check_equitable(g, hamming_partition(3))
    assert report.b.shape == (4, 4)
    counts = np.array(
        [
            [0.0, 3.0, 0.0, 0.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 2.0, 0.0, 1.0],
            [0.0, 0.0, 3.0, 0.0],
        ]
    )
    assert np.abs(report.b - counts).max() <= 1e-12


# Per-cell loop oracles: the grouped array code must reproduce them.


def _omega_loop(a):
    return np.sqrt((a * a).sum(axis=0))


def _partition_matrix_loop(g, p):
    w = _omega_loop(g.adjacency)
    q = np.zeros((g.n, p.m))
    for ci, cell in enumerate(p.cells):
        idx = [v - 1 for v in cell]
        total = math.sqrt(float((w[idx] ** 2).sum()))
        if total == 0.0:
            raise DegeneratePartitionError(
                f"cell {ci + 1} has zero total weight and cannot be normalized"
            )
        q[idx, ci] = w[idx] / total
    return q


def _check_equitable_loop(g, p, tol=1e-10):
    a = g.adjacency
    w = _omega_loop(a)
    scaled = a * w[None, :]
    cell_sums = np.empty((g.n, p.m))
    for cj, cell in enumerate(p.cells):
        cell_sums[:, cj] = scaled[:, [v - 1 for v in cell]].sum(axis=1)
    b = np.empty((p.m, p.m))
    max_spread = 0.0
    worst = (1, 1, p.cells[0][0])
    for ci, cell in enumerate(p.cells):
        idx = [v - 1 for v in cell]
        wu = w[idx][:, None]
        rows = cell_sums[idx, :]
        vals = np.divide(rows, wu, out=np.zeros_like(rows), where=wu > 0.0)
        b[ci, :] = vals.mean(axis=0)
        spreads = vals.max(axis=0) - vals.min(axis=0)
        cj = int(np.argmax(spreads))
        if spreads[cj] > max_spread:
            max_spread = float(spreads[cj])
            offender = int(np.argmax(np.abs(vals[:, cj] - b[ci, cj])))
            worst = (ci + 1, cj + 1, cell[offender])
    return max_spread <= tol, b, max_spread, worst


def _random_graph(rng, n):
    """Sparse symmetric weights of both signs, self-loops, and a few isolated vertices."""
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
    a = np.triu(a) + np.triu(a, 1).T
    isolated = rng.random(n) < 0.15
    a[isolated, :] = 0.0
    a[:, isolated] = 0.0
    return WeightedGraph(n, a)


def _random_partitions(rng, n):
    labels = rng.integers(0, max(1, n // 3), size=n)
    cells = [tuple(int(v) + 1 for v in np.flatnonzero(labels == c)) for c in np.unique(labels)]
    order = rng.permutation(len(cells))
    yield Partition(n, tuple(cells[i] for i in order))
    yield Partition(n, tuple((int(v) + 1,) for v in rng.permutation(n)))
    yield Partition(n, (tuple(range(1, n + 1)),))


def _differential_inputs():
    rng = np.random.default_rng(20261018)
    for trial in range(60):
        n = int(rng.integers(1, 25))
        g = _random_graph(rng, n)
        for p in _random_partitions(rng, n):
            yield f"random-{trial}", g, p
    for dim in range(3, 9):
        ham = hamming_partition(dim)
        shuffled = Partition(ham.n, tuple(ham.cells[i] for i in rng.permutation(ham.m)))
        yield f"q{dim}-hamming", hypercube(dim), shuffled
    for n in range(2, 11):
        for k in range(1, n):
            graph = symmetric_power(weighted_path(n), k)
            yield f"mirror-{n}-{k}", graph, orbit_partition(graph, _mirror_permutation(n, k))


def _close(x, ref):
    scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
    return float(np.abs(np.asarray(x) - ref).max(initial=0.0)) <= 1e-12 * scale


def test_check_equitable_matches_per_cell_loop():
    for name, g, p in _differential_inputs():
        equitable, b, max_spread, worst = _check_equitable_loop(g, p)
        report = check_equitable(g, p)
        assert report.equitable == equitable, name
        assert (report.worst_cell, report.worst_target_cell, report.worst_vertex) == worst, name
        assert _close(report.b, b), name
        assert _close(report.max_spread, max_spread), name


def test_normalized_partition_matrix_matches_per_cell_loop():
    degenerate = 0
    for name, g, p in _differential_inputs():
        try:
            q = _partition_matrix_loop(g, p)
        except DegeneratePartitionError as expected:
            degenerate += 1
            with pytest.raises(DegeneratePartitionError) as err:
                normalized_partition_matrix(g, p)
            assert str(err.value) == str(expected), name
            continue
        pm = normalized_partition_matrix(g, p)
        assert _close(pm.q, q), name
    assert degenerate > 0


def _traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


# The unscaled formulas, which square the weights as they stand: the oracle
# for every input whose squares fit a float.


def _omega_unscaled(g):
    return np.sqrt(np.bincount(g._cols, weights=g._weights * g._weights, minlength=g.n))


def _strength_unscaled(g, cells, m, x):
    flat = g._rows * m + cells[g._cols]
    return np.bincount(flat, weights=g._weights * x[g._cols], minlength=g.n * m).reshape(g.n, m)


def _check_equitable_unscaled(g, p):
    w = _omega_unscaled(g)
    cells = p.cell_index
    strength = _strength_unscaled(g, cells, p.m, w)
    vals = np.divide(strength, w[:, None], out=np.zeros(strength.shape), where=w[:, None] > 0.0)
    order = np.argsort(cells, kind="stable")
    sizes = np.bincount(cells, minlength=p.m)
    starts = np.cumsum(sizes) - sizes
    by_cell = np.take(vals.T, order, axis=1)
    b = (np.add.reduceat(by_cell, starts, axis=1) / sizes).T
    spreads = (np.maximum.reduceat(by_cell, starts, axis=1) - np.minimum.reduceat(by_cell, starts, axis=1)).T
    ci, cj = divmod(int(np.argmax(spreads)), p.m)
    members = np.flatnonzero(cells == ci)
    offender = int(np.argmax(np.abs(vals[members, cj] - b[ci, cj])))
    return b, float(spreads[ci, cj]), (ci + 1, cj + 1, int(members[offender]) + 1)


def _partition_matrix_unscaled(g, p):
    w = _omega_unscaled(g)
    cells = p.cell_index
    cell_weights = np.sqrt(np.bincount(cells, weights=w * w, minlength=p.m))
    q = np.zeros((g.n, p.m))
    q[np.arange(g.n), cells] = w / cell_weights[cells]
    return q


def _quotient_unscaled(g, p, q):
    cells = p.cell_index
    b = q.T @ _strength_unscaled(g, cells, p.m, q[np.arange(g.n), cells])
    return 0.5 * (b + b.T)


def _same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _hamming_and_mirror_partitions():
    rng = np.random.default_rng(20261019)
    for dim in range(3, 9):
        ham = hamming_partition(dim)
        yield f"q{dim}-hamming", hypercube(dim), Partition(ham.n, tuple(ham.cells[i] for i in rng.permutation(ham.m)))
    for n in range(2, 12):
        for k in range(1, n):
            graph = symmetric_power(weighted_path(n), k)
            yield f"mirror-{n}-{k}", graph, orbit_partition(graph, _mirror_permutation(n, k))


def test_partition_layer_keeps_the_unscaled_bytes():
    # weights far below 1e149 are never scaled, so every array is that of the squaring formulas
    for name, g, p in _hamming_and_mirror_partitions():
        b, max_spread, worst = _check_equitable_unscaled(g, p)
        report = check_equitable(g, p)
        assert _same_bytes(report.b, b) and report.max_spread == max_spread, name
        assert (report.worst_cell, report.worst_target_cell, report.worst_vertex) == worst, name
        q = _partition_matrix_unscaled(g, p)
        pm = normalized_partition_matrix(g, p)
        assert _same_bytes(pm.q, q), name
        assert _same_bytes(_quotient_graph(g, pm).adjacency, _quotient_unscaled(g, p, q)), name


@pytest.mark.parametrize("exponent", [512, 600, 1000])
def test_partition_layer_scales_with_weights_whose_squares_overflow(exponent):
    # 2**exponent A squares past the float range; scaling by a power of two is exact, so
    # q is unchanged, b, the spread and the quotient scale by 2**exponent, and
    # nothing warns (the equitability verdict does not scale: TOL_EQ is absolute)
    for name, g, p in _hamming_and_mirror_partitions():
        if 2.0 ** (exponent - 1024) * np.abs(g._weights).max() * g.n >= 1.0:
            continue  # the quotient's own entries would pass the float range
        big = WeightedGraph(g.n, np.ldexp(g.adjacency, exponent))
        report, base = check_equitable(big, p), check_equitable(g, p)
        assert _same_bytes(report.b, np.ldexp(base.b, exponent)), name
        assert report.max_spread == math.ldexp(base.max_spread, exponent), name
        pm, pm_base = normalized_partition_matrix(big, p), normalized_partition_matrix(g, p)
        assert _same_bytes(pm.q, pm_base.q), name
        expected = np.ldexp(_quotient_graph(g, pm_base).adjacency, exponent)
        assert _same_bytes(_quotient_graph(big, pm).adjacency, expected), name


def test_quotient_entry_past_the_float_range_is_refused_without_warnings():
    # the ends-and-middle partition of this path is equitable, and its quotient has
    # an entry of sqrt(2) times the largest float: the m_q x m_q product overflows
    # quietly and is refused
    g = graph_from_edges(3, [(1, 2, 1.7976931348623157e308), (2, 3, 1.7976931348623157e308)])
    pm = normalized_partition_matrix(g, Partition(3, ((1, 3), (2,))))
    with pytest.raises(PreconditionError, match="^a quotient entry overflows a float$"):
        quotient(g, pm)


def test_partition_layer_allocates_less_than_one_adjacency():
    # one 1024 x 1024 float array is 8 MiB; the grouped code stays far below it
    g, p = hypercube(10), hamming_partition(10)
    assert _traced_peak_mib(check_equitable, g, p) < 8.0
    assert _traced_peak_mib(normalized_partition_matrix, g, p) < 8.0


# The quotient sums A Q over the stored edges; it must stay within roundoff
# of the dense product Q^T A Q.


def _dense_quotient(g, pm):
    b = pm.q.T @ g.adjacency @ pm.q
    return 0.5 * (b + b.T)


def _assert_quotient_matches_dense(g, p):
    pm = normalized_partition_matrix(g, p)
    quot = _quotient_graph(g, pm).adjacency
    assert np.abs(quot - _dense_quotient(g, pm)).max() <= 1e-13


@pytest.mark.parametrize("dim", range(3, 13))
def test_quotient_matches_dense_product_on_hamming(dim):
    rng = np.random.default_rng(dim)
    ham = hamming_partition(dim)
    shuffled = Partition(ham.n, tuple(ham.cells[i] for i in rng.permutation(ham.m)))
    _assert_quotient_matches_dense(hypercube(dim), shuffled)


def _random_symmetric_graph(rng, n):
    """Random weights on a random involution's orbits, so the orbit partition is equitable."""
    perm = np.arange(n)
    pairs = rng.permutation(n)[: 2 * int(rng.integers(0, n // 2 + 1))].reshape(-1, 2)
    perm[pairs[:, 0]], perm[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    a = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5))
    a = a + np.triu(a, 1).T
    g = WeightedGraph(n, a + a[np.ix_(perm, perm)])
    cells = orbit_partition(g, perm).cells
    return g, Partition(n, tuple(cells[i] for i in rng.permutation(len(cells))))


def test_quotient_matches_dense_product_on_random_equitable_partitions():
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(60):
        g, p = _random_symmetric_graph(rng, int(rng.integers(2, 40)))
        assert check_equitable(g, p).equitable
        try:
            _assert_quotient_matches_dense(g, p)
        except DegeneratePartitionError:
            continue  # an isolated vertex alone in its cell
        checked += 1
    for n in range(2, 11):
        for k in range(1, n):
            graph = symmetric_power(weighted_path(n), k)
            _assert_quotient_matches_dense(graph, orbit_partition(graph, _mirror_permutation(n, k)))
    assert checked >= 40


def test_hypercube_pipeline_never_allocates_an_adjacency():
    # one 4096 x 4096 float array is 128 MiB; the edge arrays are 24576 long
    p = hamming_partition(12)

    def pipeline():
        g = load_graph(save_graph(hypercube(12)))
        assert check_equitable(g, p).equitable
        return _quotient_graph(g, normalized_partition_matrix(g, p))

    assert _traced_peak_mib(pipeline) < 32.0


# orbit_partition reads the stored edges; the dense conjugation and the
# cycle walk it replaced are the oracle.


def _orbit_partition_dense(g, perm):
    """(deviation, partition or None, error message or None) by dense conjugation and a cycle walk."""
    conj = g.adjacency[np.ix_(perm, perm)]
    dev = float(np.abs(conj - g.adjacency).max())
    if dev > 1e-12:
        return dev, None, f"permutation is not an automorphism, deviation {dev:.3e}"
    seen = np.zeros(g.n, dtype=bool)
    cells = []
    for start in range(g.n):
        cycle = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur + 1)
            cur = int(perm[cur])
        if cycle:
            cells.append(tuple(sorted(cycle)))
    return dev, Partition(g.n, tuple(sorted(cells))), None


def _assert_orbits_match_dense(g, perm):
    dev, expected, message = _orbit_partition_dense(g, perm)
    assert _automorphism_deviation(g, perm) == dev
    if message is None:
        assert orbit_partition(g, perm) == expected
    else:
        with pytest.raises(PreconditionError) as err:
            orbit_partition(g, perm)
        assert str(err.value) == message
    return message is None


def _invariant_graph(rng, perm):
    """Random weights constant on each orbit of ``perm`` acting on vertex pairs: ``perm`` is an automorphism."""
    n = perm.size
    a = np.zeros((n, n))
    seen = np.zeros((n, n), dtype=bool)
    for i, j in zip(*np.triu_indices(n)):
        w = rng.normal() if rng.random() < 0.4 else 0.0
        while not seen[i, j]:
            seen[i, j] = seen[j, i] = True
            a[i, j] = a[j, i] = w
            i, j = perm[i], perm[j]
    return WeightedGraph(n, a)


@pytest.mark.parametrize("n", range(2, 11))
def test_orbit_partition_matches_dense_on_mirror_maps(n):
    for k in range(1, n + 1):
        assert _assert_orbits_match_dense(symmetric_power(weighted_path(n), k), _mirror_permutation(n, k))


def test_orbit_partition_matches_dense_on_random_permutations():
    rng = np.random.default_rng(20261018)
    accepted = refused = 0
    for _ in range(40):
        n = int(rng.integers(1, 30))
        perm = rng.permutation(n)
        accepted += _assert_orbits_match_dense(_invariant_graph(rng, perm), perm)
        refused += not _assert_orbits_match_dense(_random_graph(rng, n), perm)
    assert accepted == 40 and refused >= 30


def test_orbit_partition_accepts_a_tiny_one_sided_edge():
    # the reflection carries the 1e-15 edge (1, 3) to (2, 4), which the graph does not hold
    a = weighted_path(4).adjacency.copy()
    a[0, 2] = a[2, 0] = 1e-15
    g = WeightedGraph(4, a)
    assert _automorphism_deviation(g, reflection_permutation(4)) == 1e-15
    assert _assert_orbits_match_dense(g, reflection_permutation(4))
    assert orbit_partition(g, reflection_permutation(4)).cells == ((1, 4), (2, 3))


def test_orbit_partition_never_scatters_the_adjacency():
    # the dense 1716 x 1716 adjacency alone is 22.5 MiB
    g = symmetric_power(weighted_path(13), 6)
    perm = _mirror_permutation(13, 6)
    assert _traced_peak_mib(orbit_partition, g, perm) < 4.0
    assert g._dense is None
