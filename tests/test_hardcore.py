"""Hard-core restriction, component structure and the symmetric power."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pstlab import (
    ComponentDecomposition,
    InvalidSizeError,
    InvariantViolationError,
    OccupationLabel,
    Partition,
    PreconditionError,
    ResourceCapError,
    SignedDiagonal,
    WeightedGraph,
    apply_deletion,
    ascending_labels,
    c_operator,
    cartesian_power,
    commutator_check_antisymmetry,
    component_isomorphism_check,
    decompose_components,
    deletion_mask,
    eigh,
    hypercube,
    indistinguishability_partition,
    mirror_partition,
    normalized_partition_matrix,
    orbit_partition,
    simple_path,
    quotient,
    symmetric_power,
    unit_antisymmetry,
    weighted_path,
)
from pstlab.hardcore import (
    _EDGE_THRESHOLD,
    _ascending,
    _is_line_path,
    _kept_graph,
    _kept_table,
    _label_rows,
    _mirror_permutation,
)
from pstlab.partition import _components
from pstlab.products import _digits

from conftest import cycle_graph

COMPONENT_GRID = [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3), (6, 4)]


def hardcore_graph(n, k):
    g = cartesian_power(weighted_path(n), k)
    mask = deletion_mask(n, k)
    return apply_deletion(g, mask), mask


def test_deletion_mask_counts():
    for n, k in COMPONENT_GRID:
        mask = deletion_mask(n, k)
        assert mask.kept_count == math.factorial(n) // math.factorial(n - k)
        labels = mask.kept_labels()
        assert len(labels) == mask.kept_count
        assert all(len(set(lab)) == len(lab) for lab in labels)


def test_deletion_mask_k1_keeps_all():
    mask = deletion_mask(5, 1)
    assert mask.kept_count == 5


def test_apply_deletion_shape():
    g_hc, mask = hardcore_graph(4, 2)
    assert g_hc.n == 12
    # surviving edges never touch a deleted vertex and keep their weight
    full = cartesian_power(weighted_path(4), 2)
    kept = mask.kept_indices()
    assert np.array_equal(g_hc.adjacency, full.adjacency[np.ix_(kept, kept)])


@pytest.mark.parametrize("n,k", COMPONENT_GRID)
def test_component_counts_and_sizes(n, k):
    g_hc, _ = hardcore_graph(n, k)
    decomp = decompose_components(g_hc, n, k)
    comps = decomp.components
    assert len(comps) == math.factorial(k)
    size = math.comb(n, k)
    assert all(len(c) == size for c in comps)
    ascending = tuple(range(1, k + 1))
    assert ascending in [decomp.labels[i] for i in comps[0]]


def test_component_ordering_stable():
    g_hc, _ = hardcore_graph(5, 2)
    decomp = decompose_components(g_hc, 5, 2)
    # canonical first, remaining components by smallest kept index
    firsts = [c[0] for c in decomp.components[1:]]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("n,k", COMPONENT_GRID)
def test_components_pairwise_isomorphic(n, k):
    g_hc, _ = hardcore_graph(n, k)
    decomp = decompose_components(g_hc, n, k)
    assert component_isomorphism_check(decomp, g_hc) <= 1e-12


def test_cycle_breaks_component_invariant():
    g = cartesian_power(cycle_graph(4), 2)
    g_hc = apply_deletion(g, deletion_mask(4, 2))
    with pytest.raises(InvariantViolationError):
        decompose_components(g_hc, 4, 2)


def test_unit_antisymmetry_signs():
    g_hc, _ = hardcore_graph(5, 3)
    decomp = decompose_components(g_hc, 5, 3)
    signed = unit_antisymmetry(decomp)
    assert signed.component_signs == (1, -1, -1, 1, 1, -1)
    assert commutator_check_antisymmetry(g_hc, signed) <= 1e-12


def test_signs_square_to_identity():
    g_hc, _ = hardcore_graph(4, 2)
    signed = unit_antisymmetry(decompose_components(g_hc, 4, 2))
    assert np.array_equal(signed.signs**2, np.ones(g_hc.n))


def test_indistinguishability_partition_post_deletion():
    mask = deletion_mask(4, 2)
    p = indistinguishability_partition(mask, 4, 2)
    assert p.n == 12
    assert p.m == 6
    assert all(len(cell) == 2 for cell in p.cells)
    labels = mask.kept_labels()
    for cell in p.cells:
        reprs = {tuple(sorted(labels[v - 1])) for v in cell}
        assert len(reprs) == 1


def test_indistinguishability_partition_pre_deletion():
    p = indistinguishability_partition(None, 3, 2)
    assert p.n == 9
    assert p.m == 6  # 3 diagonal singletons plus 3 swap pairs
    sizes = sorted(len(c) for c in p.cells)
    assert sizes == [1, 1, 1, 2, 2, 2]


def test_symmetric_power_frozen_4_2():
    sg = symmetric_power(weighted_path(4), 2)
    labels = list(itertools.combinations(range(1, 5), 2))
    assert sg.n == 6
    idx = {lab: i for i, lab in enumerate(labels)}
    expected_edges = {
        ((1, 2), (1, 3)): 2.0,
        ((1, 3), (1, 4)): math.sqrt(3.0),
        ((1, 3), (2, 3)): math.sqrt(3.0),
        ((1, 4), (2, 4)): math.sqrt(3.0),
        ((2, 3), (2, 4)): math.sqrt(3.0),
        ((2, 4), (3, 4)): 2.0,
    }
    seen = {}
    for (a, b), w in expected_edges.items():
        seen[(idx[a], idx[b])] = w
    for i in range(6):
        for j in range(i + 1, 6):
            want = seen.get((i, j), 0.0)
            assert sg.adjacency[i, j] == pytest.approx(want, abs=1e-15)
    assert np.array_equal(np.diag(sg.adjacency), np.zeros(6))


def test_symmetric_power_spectrum_ladder():
    vals = eigh(symmetric_power(weighted_path(4), 2)).eigenvalues
    expected = np.array([-4.0, -2.0, 0.0, 0.0, 2.0, 4.0])
    assert np.abs(vals - expected).max() <= 1e-9


def test_symmetric_power_equals_quotient_routes():
    # Route 1: delete repeats, then quotient by the multiset partition of a
    # signed canonical component. Route 2: build the token graph directly.
    n, k = 5, 2
    direct = symmetric_power(weighted_path(n), k)
    g_hc, mask = hardcore_graph(n, k)
    p = indistinguishability_partition(mask, n, k)
    pm = normalized_partition_matrix(g_hc, p)
    b = quotient(g_hc, pm)
    assert np.abs(b.adjacency - direct.adjacency).max() <= 1e-12


def test_symmetric_power_requires_line_path():
    with pytest.raises(PreconditionError):
        symmetric_power(cycle_graph(4), 2)
    sg = symmetric_power(cycle_graph(4), 2, allow_non_path=True)
    assert sg.n == 6


def test_symmetric_power_k_bounds():
    g = weighted_path(4)
    assert symmetric_power(g, 4).n == 1
    with pytest.raises(InvalidSizeError):
        symmetric_power(g, 0)
    with pytest.raises(InvalidSizeError):
        symmetric_power(g, 5)


def test_c_operator_examples():
    assert c_operator(OccupationLabel((1, 2), 4)).sites == (3, 4)
    assert c_operator(OccupationLabel((1, 4), 4)).sites == (1, 4)
    assert c_operator(OccupationLabel((2, 3), 5)).sites == (3, 4)


def test_c_operator_involution():
    for combo in itertools.combinations(range(1, 7), 3):
        lab = OccupationLabel(combo, 6)
        assert c_operator(c_operator(lab)).sites == combo


def test_mirror_partition_4_2():
    sg = symmetric_power(weighted_path(4), 2)
    p = mirror_partition(sg, 4, 2)
    # label order: 12 13 14 23 24 34; mirror swaps 12<->34, 13<->24
    assert p == Partition(6, ((1, 6), (2, 5), (3,), (4,)))
    pm = normalized_partition_matrix(sg, p)
    b = quotient(sg, pm)
    vals = eigh(b).eigenvalues
    assert np.abs(vals - np.array([-4.0, 0.0, 0.0, 4.0])).max() <= 1e-9


def test_mirror_partition_claw_weights():
    sg = symmetric_power(weighted_path(4), 2)
    b = quotient(sg, normalized_partition_matrix(sg, mirror_partition(sg, 4, 2)))
    w = sorted(x for x in np.unique(np.round(b.adjacency, 12)) if x > 0)
    assert w == pytest.approx([2.0, math.sqrt(6.0)], abs=1e-12)


def test_mirror_partition_rejects_wrong_size():
    sg = symmetric_power(weighted_path(4), 2)
    with pytest.raises(PreconditionError):
        mirror_partition(sg, 5, 2)


def test_ascending_labels_lexicographic():
    assert ascending_labels(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    for n, k in [(5, 1), (6, 3), (7, 7)]:
        labels = ascending_labels(n, k)
        assert len(labels) == math.comb(n, k)
        assert list(labels) == sorted(labels)
        assert all(list(lab) == sorted(set(lab)) for lab in labels)


def symmetric_power_loop(g, k):
    """Oracle: the hard-core adjacency built one ascending label at a time."""
    combos = list(itertools.combinations(range(g.n), k))
    position = {c: i for i, c in enumerate(combos)}
    a = g.adjacency
    out = np.zeros((len(combos), len(combos)))
    for i, occupied in enumerate(combos):
        loop = float(a[list(occupied), list(occupied)].sum())
        if loop != 0.0:
            out[i, i] = loop
        for site in occupied:
            for neighbor in np.flatnonzero(a[site]):
                neighbor = int(neighbor)
                if neighbor == site or neighbor in occupied:
                    continue
                moved = tuple(sorted(set(occupied) - {site} | {neighbor}))
                out[i, position[moved]] = a[site, neighbor]
    return out


def mirror_lookup(n, labels):
    """Oracle: the mirror map as a dict lookup of each label's c_operator image."""
    position = {lab: i for i, lab in enumerate(labels)}
    return np.array([position[c_operator(OccupationLabel(lab, n)).sites] for lab in labels])


def seeded_graphs():
    """A ring, the cube Q3 and a random graph, with self-loops and signed weights."""
    rng = np.random.default_rng(20240611)
    ring = np.zeros((7, 7))
    for v in range(7):
        ring[v, (v + 1) % 7] = rng.uniform(-2.0, 2.0)
    cube = hypercube(3).adjacency * rng.uniform(-2.0, 2.0, (8, 8))
    rand = np.triu(rng.uniform(-2.0, 2.0, (8, 8)) * (rng.random((8, 8)) < 0.4), 1)
    graphs = []
    for name, upper in (("ring7", np.triu(ring + ring.T, 1)), ("cube3", np.triu(cube, 1)), ("random8", rand)):
        loops = np.diag(rng.uniform(-1.0, 1.0, upper.shape[0]) * (rng.random(upper.shape[0]) < 0.6))
        graphs.append((name, WeightedGraph(upper.shape[0], upper + upper.T + loops)))
    return graphs


SEEDED = seeded_graphs()


def assert_same_graph(built, dense):
    """Edge arrays and adjacency of ``built`` equal those of the dense-built ``dense``."""
    assert built.n == dense.n
    for name in ("_rows", "_cols", "_weights"):
        assert np.array_equal(getattr(built, name), getattr(dense, name)), name
    assert np.array_equal(built.adjacency, dense.adjacency)


@pytest.mark.parametrize("n", range(2, 11))
def test_symmetric_power_matches_label_loop_on_paths(n):
    for k in range(1, n + 1):
        g = weighted_path(n)
        assert np.array_equal(symmetric_power(g, k).adjacency, symmetric_power_loop(g, k))


@pytest.mark.parametrize("name,g", SEEDED, ids=[name for name, _ in SEEDED])
def test_symmetric_power_matches_label_loop_off_paths(name, g):
    assert np.any(np.diagonal(g.adjacency) != 0.0) and np.any(g.adjacency < 0.0)
    for k in (1, 2, 3):
        built = symmetric_power(g, k, allow_non_path=True).adjacency
        assert np.array_equal(built, symmetric_power_loop(g, k))


@pytest.mark.parametrize(
    "name,g",
    [(f"path{n}", weighted_path(n)) for n in range(2, 11)] + SEEDED,
    ids=[f"path{n}" for n in range(2, 11)] + [name for name, _ in SEEDED],
)
def test_symmetric_power_equals_dense_build(name, g):
    for k in range(1, min(g.n, 4) + 1):
        dense = symmetric_power_loop(g, k)
        assert_same_graph(symmetric_power(g, k, allow_non_path=True), WeightedGraph(dense.shape[0], dense))


@pytest.mark.parametrize("n", range(2, 8))
def test_kept_graph_equals_deleted_power_on_paths(n):
    for k in range(1, n + 1):
        if n**k > 2401:
            break
        g = weighted_path(n)
        assert_same_graph(_kept_graph(g, _kept_table(n, k)), apply_deletion(cartesian_power(g, k), deletion_mask(n, k)))


@pytest.mark.parametrize("name,g", SEEDED, ids=[name for name, _ in SEEDED])
def test_kept_graph_equals_deleted_power_off_paths(name, g):
    for k in (1, 2, 3):
        expected = apply_deletion(cartesian_power(g, k), deletion_mask(g.n, k))
        assert_same_graph(_kept_graph(g, _kept_table(g.n, k)), expected)


@pytest.mark.parametrize("n", range(1, 8))
def test_kept_table_is_the_mask_decoded(n):
    for k in range(1, n + 2):
        if n**k > 2401:
            break
        table = _kept_table(n, k)
        assert table.shape == (math.perm(n, k), k) and table.dtype == np.int64
        assert np.array_equal(table, _digits(deletion_mask(n, k).kept_indices(), n, k))


def test_kept_table_caps_the_kept_count_not_the_power():
    # 12**4 = 20736 power labels exceed the default cap, the 11880 kept labels do not
    assert _kept_table(12, 4).shape == (11880, 4)
    with pytest.raises(ResourceCapError, match="30240 kept labels, cap is 16384"):
        _kept_table(10, 5)
    with pytest.raises(ResourceCapError, match="60 kept labels, cap is 59"):
        _kept_table(5, 3, cap=59)
    assert _kept_table(5, 3, cap=60).shape == (60, 3)


def line_path_dense(g):
    """Oracle: the path test as it read the dense adjacency."""
    if g.n < 2:
        return False
    a = g.adjacency
    return np.count_nonzero(a) == 2 * (g.n - 1) and bool(np.all(np.diagonal(a, offset=1) != 0.0))


def path_variants():
    """Paths along vertex order and near misses: a loop, a missing edge, a chord, a shuffle, signed zeros."""
    graphs = [WeightedGraph(1, np.zeros((1, 1))), WeightedGraph(1, np.ones((1, 1))), cycle_graph(4)]
    for n in range(2, 7):
        a = weighted_path(n).adjacency.copy()
        graphs.append(WeightedGraph(n, a))
        loop = a.copy()
        loop[n // 2, n // 2] = 0.5
        graphs.append(WeightedGraph(n, loop))
        cut = a.copy()
        cut[0, 1] = cut[1, 0] = -0.0
        graphs.append(WeightedGraph(n, cut))
        chord = a.copy()
        chord[0, n - 1] = chord[n - 1, 0] = 1.0
        graphs.append(WeightedGraph(n, chord))
        perm = np.roll(np.arange(n), 1)
        graphs.append(WeightedGraph(n, a[np.ix_(perm, perm)]))
    return graphs + [g for _, g in SEEDED]


def test_line_path_reads_the_edges_like_the_dense_test():
    graphs = path_variants()
    assert [_is_line_path(g) for g in graphs] == [line_path_dense(g) for g in graphs]
    # the five weighted paths, and at n = 2 the chord and the shuffle, which are paths again
    assert sum(_is_line_path(g) for g in graphs) == 7


@pytest.mark.parametrize("name,g", SEEDED + [("path6", weighted_path(6))], ids=[name for name, _ in SEEDED] + ["path6"])
def test_commutator_reads_the_edges_like_the_dense_product(name, g):
    # seeded signs that break the commutation as well as the component signs that keep it
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        kept = _kept_graph(g, _kept_table(g.n, k))
        signs = rng.choice([-1.0, 1.0], kept.n)
        s = SignedDiagonal(signs, ())
        dense = float(np.abs(kept.adjacency * (signs[None, :] - signs[:, None])).max())
        assert commutator_check_antisymmetry(kept, s) == dense
    kept = _kept_graph(g, _kept_table(g.n, 1))
    assert commutator_check_antisymmetry(kept, SignedDiagonal(np.ones(kept.n), (1,))) == 0.0


def dense_components(a):
    """Oracle: component of each vertex by a BFS over the nonzeros of a dense array."""
    comp, count = np.full(a.shape[0], -1), 0
    for start in range(a.shape[0]):
        if comp[start] < 0:
            comp[start] = count
            stack = [start]
            while stack:
                fresh = np.flatnonzero(a[stack.pop()])
                fresh = fresh[comp[fresh] < 0]
                comp[fresh] = count
                stack.extend(fresh.tolist())
            count += 1
    return comp


def bridged_paths():
    """Two weighted paths on alternating vertices, joined by one edge of weight 1e-15."""
    a = np.zeros((10, 10))
    for v in range(8):
        a[v, v + 2] = a[v + 2, v] = 1.0 + v
    a[3, 4] = a[4, 3] = 1e-15
    return WeightedGraph(10, a)


def edge_components(g):
    edge = np.abs(g._weights) > _EDGE_THRESHOLD
    return _components(g.n, g._rows[edge], g._cols[edge])


@pytest.mark.parametrize(
    "name,g", SEEDED + [("bridged", bridged_paths())], ids=[name for name, _ in SEEDED] + ["bridged"]
)
def test_edge_components_match_dense_bfs(name, g):
    # the graph itself and its kept graphs, whose components the deletion splits apart
    for h in [g] + [_kept_graph(g, _kept_table(g.n, k)) for k in (2, 3)]:
        assert np.array_equal(edge_components(h), dense_components(np.abs(h.adjacency) > _EDGE_THRESHOLD))


def test_tiny_edge_does_not_join_components():
    assert np.array_equal(edge_components(bridged_paths()), np.arange(10) % 2)


def test_components_on_a_shuffled_path():
    # labels far from the vertex order: hooking and pointer jumping still reach the smallest vertex
    order = np.random.default_rng(3).permutation(200)
    rows = np.concatenate([order[:-1], order[1:], [200]])
    cols = np.concatenate([order[1:], order[:-1], [200]])
    assert np.array_equal(_components(202, rows, cols), np.r_[np.zeros(200, dtype=int), 1, 2])


def test_tiny_bridge_does_not_join_kept_components():
    # a 1e-15 edge between two components of the deleted graph stays below the edge threshold
    kept = _kept_graph(weighted_path(4), _kept_table(4, 2))
    a = kept.adjacency.copy()
    decomp = decompose_components(kept, 4, 2)
    u, v = decomp.components[0][0], decomp.components[1][0]
    a[u, v] = a[v, u] = 1e-15
    bridged = decompose_components(WeightedGraph(kept.n, a), 4, 2)
    assert np.array_equal(bridged.component_of, decomp.component_of)
    a[u, v] = a[v, u] = 1e-13
    with pytest.raises(InvariantViolationError):
        decompose_components(WeightedGraph(kept.n, a), 4, 2)


@pytest.mark.parametrize("n", range(2, 11))
def test_mirror_permutation_matches_c_operator_lookup(n):
    for k in range(1, n + 1):
        assert np.array_equal(_mirror_permutation(n, k), mirror_lookup(n, ascending_labels(n, k)))


@pytest.mark.parametrize("n,k", COMPONENT_GRID)
def test_mirror_permutation_on_explicit_kept_labels(n, k):
    # on the kept labels the mirror map is an automorphism of the deleted power, with orbits of size 1 or 2
    labels = deletion_mask(n, k).kept_labels()
    part = orbit_partition(_kept_graph(weighted_path(n), _kept_table(n, k)), mirror_lookup(n, labels))
    assert {len(cell) for cell in part.cells} <= {1, 2}


def test_label_rows_exact_past_int64_codes():
    # 20**16 overflows int64, so a base-n code could not rank these labels
    assert 20**16 > np.iinfo(np.int64).max
    table = _ascending(20, 16)
    assert table.shape == (math.comb(20, 16), 16)
    perm = np.random.default_rng(5).permutation(table.shape[0])
    assert np.array_equal(_label_rows(table, table[perm]), perm)
    mirrored = _mirror_permutation(20, 16)
    assert np.array_equal(mirrored[mirrored], np.arange(table.shape[0]))
    assert np.array_equal(table[mirrored], 19 - table[:, ::-1])
    with pytest.raises(PreconditionError):
        _label_rows(table, np.zeros((1, 16)))


def test_label_rows_returns_first_of_repeated_rows():
    table = np.array([[1, 2], [3, 4], [1, 2], [0, 5]])
    assert _label_rows(table, table).tolist() == [0, 1, 0, 3]


def test_isomorphism_check_rejects_path_out_of_vertex_order():
    # on the path 1 - 3 - 2 the canonical component holds (3, 2), but (2, 3) lies in the other one
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = 1.0
    a[1, 2] = a[2, 1] = 2.0
    mask = deletion_mask(3, 2)
    kept = apply_deletion(cartesian_power(WeightedGraph(3, a), 2), mask)
    decomp = decompose_components(kept, 3, 2)
    with pytest.raises(PreconditionError):
        component_isomorphism_check(decomp, kept)


def dense_isomorphism_check(decomp, g_hc):
    """Oracle for component_isomorphism_check: slices of the dense adjacency, component by component."""
    a = g_hc.adjacency
    labels = np.array(decomp.labels)
    canonical = decomp.components[0]
    target = _label_rows(labels[canonical], np.sort(labels, axis=1))
    canon_sub = a[np.ix_(canonical, canonical)]
    worst = 0.0
    for comp in decomp.components:
        sub = a[np.ix_(comp, comp)]
        worst = max(worst, float(np.abs(sub - canon_sub[np.ix_(target[comp], target[comp])]).max()))
    return worst


def path_family_graphs(n):
    """Weighted and simple paths, and a weighted path with seeded self-loops.

    Each kept label sums the loops of its sites in slot order, so the looped
    path's components differ from the canonical one by roundoff.
    """
    looped = weighted_path(n).adjacency + np.diag(np.random.default_rng(n).normal(size=n))
    return [weighted_path(n), simple_path(n), WeightedGraph(n, looped)]


@pytest.mark.parametrize("n", range(2, 10))
def test_isomorphism_check_on_edges_matches_dense(n):
    # every k whose kept graph the dense oracle can hold (3024 labels at (9, 4), a 73 MB array)
    for g in path_family_graphs(n):
        for k in range(1, n + 1):
            if math.perm(n, k) > 3024:
                continue
            kept = _kept_graph(g, _kept_table(n, k))
            decomp = decompose_components(kept, n, k)
            value = component_isomorphism_check(decomp, kept)
            assert value.hex() == dense_isomorphism_check(decomp, kept).hex()


def test_isomorphism_check_on_edges_matches_dense_off_isomorphism():
    # a changed weight, an edge missing outside the canonical component and one missing inside it
    kept = _kept_graph(weighted_path(6), _kept_table(6, 3))
    decomp = decompose_components(kept, 6, 3)
    u, v = np.flatnonzero(decomp.component_of == 2)[:2]
    c = decomp.components[0]
    for i, j, w in ((u, v, 0.5), (u, v, 0.0), (c[0], c[1], 0.0)):
        a = kept.adjacency.copy()
        if a[i, j] == 0.0:
            j = np.flatnonzero(a[i])[-1]
        a[i, j] = a[j, i] = w
        tampered = WeightedGraph(kept.n, a)
        value = component_isomorphism_check(decomp, tampered)
        assert value > 0.0
        assert value.hex() == dense_isomorphism_check(decomp, tampered).hex()


def test_isomorphism_check_error_matches_dense():
    a = np.zeros((3, 3))
    a[0, 2] = a[2, 0] = 1.0
    a[1, 2] = a[2, 1] = 2.0
    kept = _kept_graph(WeightedGraph(3, a), _kept_table(3, 2))
    decomp = decompose_components(kept, 3, 2)
    with pytest.raises(PreconditionError) as edges:
        component_isomorphism_check(decomp, kept)
    with pytest.raises(PreconditionError) as dense:
        dense_isomorphism_check(decomp, kept)
    assert str(edges.value) == str(dense.value)


def test_isomorphism_check_rejects_component_that_is_no_relabeling():
    kept = _kept_graph(weighted_path(3), _kept_table(3, 2))
    decomp = decompose_components(kept, 3, 2)
    # (2, 1) and (3, 1) sort to two of the three canonical labels; (1, 3) is left out
    bad = ComponentDecomposition(3, 2, decomp.component_of, (decomp.components[0], np.array([2, 4])), decomp.labels)
    with pytest.raises(PreconditionError, match="not a relabeling"):
        component_isomorphism_check(bad, kept)


def test_isomorphism_check_memory_reads_edges_only():
    # the dense form scattered a 3024 x 3024 adjacency and peaked at about 70 MiB
    kept = _kept_graph(weighted_path(9), _kept_table(9, 4))
    decomp = decompose_components(kept, 9, 4)
    tracemalloc.start()
    try:
        assert component_isomorphism_check(decomp, kept) == 0.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert kept._dense is None


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 2), (5, 3)])
def test_indistinguishability_partition_matches_grouping_loop(n, k):
    for mask in (deletion_mask(n, k), None):
        labels = mask.kept_labels() if mask else list(itertools.product(range(1, n + 1), repeat=k))
        groups = {}
        for vid, lab in enumerate(labels, start=1):
            groups.setdefault(tuple(sorted(lab)), []).append(vid)
        cells = sorted((tuple(c) for c in groups.values()), key=lambda c: c[0])
        assert indistinguishability_partition(mask, n, k).cells == tuple(cells)


@pytest.mark.parametrize("n,k", COMPONENT_GRID)
def test_unit_antisymmetry_matches_inversion_count(n, k):
    g_hc, _ = hardcore_graph(n, k)
    decomp = decompose_components(g_hc, n, k)
    signed = unit_antisymmetry(decomp)
    for comp, sign in zip(decomp.components, signed.component_signs):
        lab = decomp.labels[comp[0]]
        inversions = sum(lab[i] > lab[j] for i in range(k) for j in range(i + 1, k))
        assert sign == (-1) ** inversions
        assert np.all(signed.signs[comp] == sign)


def test_symmetric_power_matches_label_loop_across_hop_blocks():
    # dense weights with k close to n: the hop temporaries are split over several row blocks
    n, k = 36, 34
    assert 2**22 // (k * k * n) < math.comb(n, k)
    upper = np.triu(np.random.default_rng(11).uniform(-1.0, 1.0, (n, n)))
    g = WeightedGraph(n, upper + np.triu(upper, 1).T)
    assert np.array_equal(symmetric_power(g, k, allow_non_path=True).adjacency, symmetric_power_loop(g, k))
