"""Hard-core restriction, component structure and the symmetric power."""

import itertools
import math
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pstlab import (
    ComponentDecomposition,
    DeletionMask,
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
    _kept_table,
    _mirror_permutation,
    _rank_ascending,
    _rank_permutation,
)
from pstlab import hardcore, tonks
from pstlab.graph_core import _loops
from pstlab.graph_core import _components
from pstlab.partition import _slot_deviation
from pstlab.products import _digits
from pstlab.tonks import _compound

from conftest import cycle_graph, kept_graph, seeded_chain, seeded_cube, seeded_ring

COMPONENT_GRID = [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3), (6, 4)]


def hardcore_graph(n, k):
    g = cartesian_power(weighted_path(n), k)
    mask = deletion_mask(n, k)
    return apply_deletion(g, mask), mask


def test_deletion_mask_counts():
    for n, k in COMPONENT_GRID:
        labels = _digits(deletion_mask(n, k).kept_indices(), n, k)
        assert len(labels) == math.factorial(n) // math.factorial(n - k)
        assert all(len(set(lab)) == len(lab) for lab in labels.tolist())


def test_deletion_mask_k1_keeps_all():
    mask = deletion_mask(5, 1)
    assert mask.kept_indices().tolist() == [0, 1, 2, 3, 4]


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
    assert (decomp.labels[comps[0]] == np.arange(1, k + 1)).all(axis=1).any()


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


def assert_same_decomposition(built, oracle):
    assert (built.n, built.k, len(built.components)) == (oracle.n, oracle.k, len(oracle.components))
    for got, want in zip(
        (built.component_of, built.labels, *built.components), (oracle.component_of, oracle.labels, *oracle.components)
    ):
        assert_same_bytes(got, want)


def decomposition_outcome(decompose):
    try:
        return decompose()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n,k", COMPONENT_GRID)
def test_kept_components_equal_the_kept_graph_decomposition(n, k):
    # the components found from the hops are those of the kept graph built from them
    table = _kept_table(n, k)
    for g in (weighted_path(n), simple_path(n), seeded_chain(n, n + 10 * k, cycle=False, signed=True, loops=True)):
        assert_same_decomposition(hardcore._kept_components(g, table), decompose_components(kept_graph(g, table), n, k))


def split_paths():
    """weighted_path(3) beside weighted_path(2), and a 5-path whose middle edge lies below the edge threshold."""
    apart = np.zeros((5, 5))
    apart[:3, :3], apart[3:, 3:] = weighted_path(3).adjacency, weighted_path(2).adjacency
    faint = weighted_path(5).adjacency.copy()
    faint[2, 3] = faint[3, 2] = 1e-15
    return [WeightedGraph(5, apart), WeightedGraph(5, faint)]


@pytest.mark.parametrize(
    "g", [cycle_graph(4), cycle_graph(6), hypercube(4), *split_paths()], ids=["C4", "C6", "Q4", "apart", "faint"]
)
def test_kept_components_refuse_like_the_kept_graph(g):
    for k in (2, 3):
        table = _kept_table(g.n, k)
        built = decomposition_outcome(lambda: hardcore._kept_components(g, table))
        oracle = decomposition_outcome(lambda: decompose_components(kept_graph(g, table), g.n, k))
        assert isinstance(oracle, tuple) and issubclass(oracle[0], InvariantViolationError)
        assert built == oracle


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
    labels = _kept_table(4, 2).tolist()
    for cell in p.cells:
        reprs = {tuple(sorted(labels[v - 1])) for v in cell}
        assert len(reprs) == 1


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


def test_symmetric_power_builds_off_paths():
    sg = symmetric_power(cycle_graph(4), 2)
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
        built = symmetric_power(g, k).adjacency
        assert np.array_equal(built, symmetric_power_loop(g, k))


@pytest.mark.parametrize(
    "name,g",
    [(f"path{n}", weighted_path(n)) for n in range(2, 11)] + SEEDED,
    ids=[f"path{n}" for n in range(2, 11)] + [name for name, _ in SEEDED],
)
def test_symmetric_power_equals_dense_build(name, g):
    for k in range(1, min(g.n, 4) + 1):
        dense = symmetric_power_loop(g, k)
        assert_same_graph(symmetric_power(g, k), WeightedGraph(dense.shape[0], dense))


@pytest.mark.parametrize("n", range(2, 8))
def test_kept_graph_equals_deleted_power_on_paths(n):
    for k in range(1, n + 1):
        if n**k > 2401:
            break
        g = weighted_path(n)
        assert_same_graph(kept_graph(g, _kept_table(n, k)), apply_deletion(cartesian_power(g, k), deletion_mask(n, k)))


@pytest.mark.parametrize("name,g", SEEDED, ids=[name for name, _ in SEEDED])
def test_kept_graph_equals_deleted_power_off_paths(name, g):
    for k in (1, 2, 3):
        expected = apply_deletion(cartesian_power(g, k), deletion_mask(g.n, k))
        assert_same_graph(kept_graph(g, _kept_table(g.n, k)), expected)


def dense_power_and_deletion(g, k):
    """Oracle: the power as the dense Kronecker sum, and its deletion as the kept submatrix."""
    a = g.adjacency
    for _ in range(1, k):
        a = np.kron(a, np.eye(g.n)) + np.kron(np.eye(len(a)), g.adjacency)
    kept = deletion_mask(g.n, k).kept_indices()
    return WeightedGraph(len(a), a), WeightedGraph(kept.size, a[np.ix_(kept, kept)])


# Self-loops 1 and -1 cancel on the diagonal of the power, where no entry is stored.
CANCELLING = WeightedGraph(3, np.array([[1.0, 2.0, 0.0], [2.0, -1.0, -0.5], [0.0, -0.5, 0.0]]))


@pytest.mark.parametrize(
    "name,g",
    [(f"path{n}", weighted_path(n)) for n in (2, 5, 7)] + SEEDED + [("cancelling", CANCELLING)],
    ids=[f"path{n}" for n in (2, 5, 7)] + [name for name, _ in SEEDED] + ["cancelling"],
)
def test_power_and_deletion_equal_the_dense_build(name, g):
    for k in range(1, min(g.n, 3) + 1):
        power, deleted = dense_power_and_deletion(g, k)
        assert_same_graph(cartesian_power(g, k), power)
        assert_same_graph(apply_deletion(cartesian_power(g, k), deletion_mask(g.n, k)), deleted)


@pytest.mark.parametrize(
    "build",
    [
        lambda: cartesian_power(weighted_path(64), 2),
        lambda: apply_deletion(cartesian_power(weighted_path(16), 3), deletion_mask(16, 3)),
        lambda: symmetric_power(weighted_path(4096), 1),
    ],
    ids=["cartesian-power", "deletion", "symmetric-power"],
)
def test_builders_read_edges_only(build):
    # each graph has 4096 vertices, whose dense adjacency alone is 128 MiB
    tracemalloc.start()
    try:
        g = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert g._dense is None


@pytest.mark.parametrize("n", range(1, 8))
def test_kept_table_is_the_mask_decoded(n):
    for k in range(1, n + 2):
        if n**k > 2401:
            break
        table = _kept_table(n, k)
        assert table.shape == (math.perm(n, k), k) and table.dtype == np.int64
        assert np.array_equal(table, _digits(deletion_mask(n, k).kept_indices(), n, k))


def test_kept_table_caps_the_kept_count_not_the_power(monkeypatch):
    # 12**4 = 20736 power labels exceed the default cap, the 11880 kept labels do not
    assert _kept_table(12, 4).shape == (11880, 4)
    with pytest.raises(ResourceCapError, match="30240 kept labels, cap is 16384"):
        _kept_table(10, 5)
    monkeypatch.setenv("PSTLAB_CAP", "59")
    with pytest.raises(ResourceCapError, match="60 kept labels, cap is 59"):
        _kept_table(5, 3)
    monkeypatch.setenv("PSTLAB_CAP", "60")
    assert _kept_table(5, 3).shape == (60, 3)


@pytest.mark.parametrize("name,g", SEEDED + [("path6", weighted_path(6))], ids=[name for name, _ in SEEDED] + ["path6"])
def test_commutator_reads_the_edges_like_the_dense_product(name, g):
    # seeded signs that break the commutation as well as the component signs that keep it
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        kept = kept_graph(g, _kept_table(g.n, k))
        signs = rng.choice([-1.0, 1.0], kept.n)
        s = SignedDiagonal(signs, ())
        dense = float(np.abs(kept.adjacency * (signs[None, :] - signs[:, None])).max())
        assert commutator_check_antisymmetry(kept, s) == dense
    kept = kept_graph(g, _kept_table(g.n, 1))
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
    for h in [g] + [kept_graph(g, _kept_table(g.n, k)) for k in (2, 3)]:
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
    kept = kept_graph(weighted_path(4), _kept_table(4, 2))
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
    labels = list(map(tuple, (_kept_table(n, k) + 1).tolist()))
    part = orbit_partition(kept_graph(weighted_path(n), _kept_table(n, k)), mirror_lookup(n, labels))
    assert {len(cell) for cell in part.cells} <= {1, 2}


# The byte-key search the package used before every label lookup became a
# closed-form rank, kept as the oracle of the ranks and of the lookups of
# component_isomorphism_check and indistinguishability_partition.


def label_rows(table, labels):
    """First row of ``table`` holding each row of ``labels``; PreconditionError if one is absent.

    Rows compare as whole byte strings of int64 sites: exact for any table,
    where a base-n code would overflow once n**k reaches 2**63.
    """
    table, labels = (np.ascontiguousarray(x, dtype=np.int64) for x in (table, labels))
    row_key = np.dtype((np.void, table.itemsize * table.shape[1]))
    keys, wanted = table.view(row_key).ravel(), labels.view(row_key).ravel()
    order = np.argsort(keys, kind="stable")
    rows = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), keys.size - 1)]
    if (keys[rows] != wanted).any():
        raise PreconditionError(f"label {labels[keys[rows] != wanted][0].tolist()} is not in the label table")
    return rows


def isomorphism_check_by_label_rows(decomp, g_hc):
    """component_isomorphism_check with each sorted label looked up by ``label_rows``."""
    labels = np.array(decomp.labels)
    canonical = decomp.components[0]
    size = canonical.size
    target = label_rows(labels[canonical], np.sort(labels, axis=1))
    comp_of = np.full(g_hc.n, -1)
    for c, comp in enumerate(decomp.components):
        if (np.bincount(target[comp], minlength=size) != 1).any():
            raise PreconditionError(f"component {c} is not a relabeling of the canonical component")
        comp_of[comp] = c
    owner = comp_of[g_hc._rows]
    inner = (owner == comp_of[g_hc._cols]) & (owner >= 0)
    rows, cols, weights, owner = g_hc._rows[inner], g_hc._cols[inner], g_hc._weights[inner], owner[inner]
    moved = (owner * size + target[rows]) * size + target[cols]
    home = owner == 0
    count = len(decomp.components)
    expected = (np.arange(count)[:, None] * size**2 + moved[home]).ravel()
    return _slot_deviation(moved, weights, expected, np.tile(weights[home], count))


def indistinguishability_partition_by_label_rows(mask, n, k):
    """indistinguishability_partition with each sorted label looked up by ``label_rows``."""
    indices = mask.kept_indices()
    multisets = np.sort(_digits(indices, n, k), axis=1)
    first = label_rows(multisets, multisets)
    order = np.argsort(first, kind="stable")
    cells = np.split(order + 1, np.flatnonzero(np.diff(first[order])) + 1)
    return Partition(indices.size, tuple(tuple(cell.tolist()) for cell in cells))


def isomorphism_outcome(check, decomp, g_hc):
    """The value of ``check`` as float hex, or the text of the PreconditionError it raises."""
    try:
        return check(decomp, g_hc).hex()
    except PreconditionError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("n,k", COMPONENT_GRID)
def test_isomorphism_check_matches_the_label_rows_route(n, k):
    # the path along vertex order, its reverse and seeded relabelings, most of which the check refuses
    rng = np.random.default_rng(10 * n + k)
    orders = [np.arange(n), np.arange(n)[::-1]] + [rng.permutation(n) for _ in range(4)]
    outcomes = set()
    for order in orders:
        a = np.zeros((n, n))
        a[order[:-1], order[1:]] = a[order[1:], order[:-1]] = np.sqrt(np.arange(1, n) * (n - np.arange(1, n)))
        g = WeightedGraph(n, a)
        kept = kept_graph(g, _kept_table(n, k))
        decomp = decompose_components(kept, n, k)
        outcome = isomorphism_outcome(component_isomorphism_check, decomp, kept)
        assert outcome == isomorphism_outcome(isomorphism_check_by_label_rows, decomp, kept)
        outcomes.add(outcome.startswith("error"))
    assert outcomes == {False, True}


@pytest.mark.parametrize("n,k", COMPONENT_GRID)
def test_indistinguishability_partition_matches_the_label_rows_route_on_sub_masks(n, k):
    rng = np.random.default_rng(100 * n + k)
    full = deletion_mask(n, k).keep
    assert indistinguishability_partition(DeletionMask(n, k, full), n, k) == (
        indistinguishability_partition_by_label_rows(DeletionMask(n, k, full), n, k)
    )
    kept = np.flatnonzero(full)
    for size in (1, kept.size // 2, kept.size - 1):
        keep = np.zeros(full.size, dtype=bool)
        keep[rng.choice(kept, size=size, replace=False)] = True
        mask = DeletionMask(n, k, keep)
        assert indistinguishability_partition(mask, n, k) == indistinguishability_partition_by_label_rows(mask, n, k)


def test_indistinguishability_partition_refuses_a_mask_that_keeps_a_collision():
    keep = deletion_mask(4, 2).keep.copy()
    # power label 5 is (2, 2)
    assert _digits(np.array([5]), 4, 2).tolist() == [[1, 1]]
    keep[5] = True
    with pytest.raises(PreconditionError, match="not an ascending label"):
        indistinguishability_partition(DeletionMask(4, 2, keep), 4, 2)


def test_label_rows_exact_past_int64_codes():
    # 20**16 overflows int64, so a base-n code could not rank these labels
    assert 20**16 > np.iinfo(np.int64).max
    table = _ascending(20, 16)
    assert table.shape == (math.comb(20, 16), 16)
    perm = np.random.default_rng(5).permutation(table.shape[0])
    assert np.array_equal(label_rows(table, table[perm]), perm)
    mirrored = _mirror_permutation(20, 16)
    assert np.array_equal(mirrored[mirrored], np.arange(table.shape[0]))
    assert np.array_equal(table[mirrored], 19 - table[:, ::-1])
    with pytest.raises(PreconditionError):
        label_rows(table, np.zeros((1, 16)))


def test_label_rows_returns_first_of_repeated_rows():
    table = np.array([[1, 2], [3, 4], [1, 2], [0, 5]])
    assert label_rows(table, table).tolist() == [0, 1, 0, 3]


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
    target = label_rows(labels[canonical], np.sort(labels, axis=1))
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
            kept = kept_graph(g, _kept_table(n, k))
            decomp = decompose_components(kept, n, k)
            value = component_isomorphism_check(decomp, kept)
            assert value.hex() == dense_isomorphism_check(decomp, kept).hex()


def test_isomorphism_check_on_edges_matches_dense_off_isomorphism():
    # a changed weight, an edge missing outside the canonical component and one missing inside it
    kept = kept_graph(weighted_path(6), _kept_table(6, 3))
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
    kept = kept_graph(WeightedGraph(3, a), _kept_table(3, 2))
    decomp = decompose_components(kept, 3, 2)
    with pytest.raises(PreconditionError) as edges:
        component_isomorphism_check(decomp, kept)
    with pytest.raises(PreconditionError) as dense:
        dense_isomorphism_check(decomp, kept)
    assert str(edges.value) == str(dense.value)


def test_isomorphism_check_rejects_component_that_is_no_relabeling():
    kept = kept_graph(weighted_path(3), _kept_table(3, 2))
    decomp = decompose_components(kept, 3, 2)
    # (2, 1) and (3, 1) sort to two of the three canonical labels; (1, 3) is left out
    bad = ComponentDecomposition(3, 2, decomp.component_of, (decomp.components[0], np.array([2, 4])), decomp.labels)
    with pytest.raises(PreconditionError, match="not a relabeling"):
        component_isomorphism_check(bad, kept)


def test_isomorphism_check_memory_reads_edges_only():
    # the dense form scattered a 3024 x 3024 adjacency and peaked at about 70 MiB
    kept = kept_graph(weighted_path(9), _kept_table(9, 4))
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
    groups = {}
    for vid, lab in enumerate(_kept_table(n, k).tolist(), start=1):
        groups.setdefault(tuple(sorted(lab)), []).append(vid)
    cells = sorted((tuple(c) for c in groups.values()), key=lambda c: c[0])
    assert indistinguishability_partition(deletion_mask(n, k), n, k).cells == tuple(cells)


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
    assert 2**22 // (k * k * (n - 1)) < math.comb(n, k)
    upper = np.triu(np.random.default_rng(11).uniform(-1.0, 1.0, (n, n)))
    g = WeightedGraph(n, upper + np.triu(upper, 1).T)
    assert np.array_equal(symmetric_power(g, k).adjacency, symmetric_power_loop(g, k))


# The closed-form ranks against the byte-key search they replaced, which stays
# here as their oracle: the row of each label in the whole label table.


def rank_by_lookup_ascending(labels, n):
    return label_rows(_ascending(n, labels.shape[1]), labels)


def rank_by_lookup_permutation(labels, n):
    return label_rows(_kept_table(n, labels.shape[1]), labels)


def by_label_rows(monkeypatch, build):
    """``build()`` with every closed-form rank replaced by its ``label_rows`` oracle."""
    with monkeypatch.context() as m:
        m.setattr(hardcore, "_rank_ascending", rank_by_lookup_ascending)
        m.setattr(hardcore, "_rank_permutation", rank_by_lookup_permutation)
        m.setattr(tonks, "_rank_ascending", rank_by_lookup_ascending)
        return build()


def assert_same_bytes(built, oracle):
    assert (built.dtype, built.shape, built.tobytes()) == (oracle.dtype, oracle.shape, oracle.tobytes())


def assert_same_graph_bytes(built, oracle):
    assert built.n == oracle.n
    for name in ("_rows", "_cols", "_weights"):
        assert_same_bytes(getattr(built, name), getattr(oracle, name))


@pytest.mark.parametrize("n", range(1, 11))
def test_rank_ascending_matches_label_rows(n):
    rng = np.random.default_rng(n)
    for k in range(1, n + 1):
        table = _ascending(n, k)
        order = rng.permutation(table.shape[0])
        assert np.array_equal(_rank_ascending(table, n), np.arange(table.shape[0]))
        assert np.array_equal(_rank_ascending(table[order], n), order)
        assert np.array_equal(_rank_ascending(table[order], n), label_rows(table, table[order]))
        # the tables _compound ranks at level j: tails of its offset rows, and columns less one slot
        for j in range(2, k + 1):
            rows, cols = _ascending(n - k + j, j) + (k - j), _ascending(n, j)
            tails = _ascending(n - k + j - 1, j - 1) + (k - j + 1)
            assert np.array_equal(
                _rank_ascending(rows[:, 1:] - (k - j + 1), n - k + j - 1), label_rows(tails, rows[:, 1:])
            )
            for c in range(j):
                less = np.delete(cols, c, axis=1)[rng.permutation(cols.shape[0])]
                assert np.array_equal(_rank_ascending(less, n), label_rows(_ascending(n, j - 1), less))


# Every k-permutation table with n <= 10 that the default size cap lets _kept_table list.
PERMUTATION_GRID = [(n, k) for n in range(1, 11) for k in range(1, n + 1) if math.perm(n, k) <= 16384]


@pytest.mark.parametrize("n,k", PERMUTATION_GRID)
def test_rank_permutation_matches_label_rows(n, k):
    table = _kept_table(n, k)
    order = np.random.default_rng(n * 10 + k).permutation(table.shape[0])
    assert np.array_equal(_rank_permutation(table, n), np.arange(table.shape[0]))
    assert np.array_equal(_rank_permutation(table[order], n), order)
    assert np.array_equal(_rank_permutation(table[order], n), label_rows(table, table[order]))


@pytest.mark.parametrize("n,k", PERMUTATION_GRID)
def test_kept_table_matches_the_itertools_listing(n, k):
    # the listing _kept_table replaced, kept as its oracle
    listed = np.array(list(itertools.permutations(range(n), k)), dtype=np.int64).reshape(math.perm(n, k), k)
    assert_same_bytes(_kept_table(n, k), listed)


@pytest.mark.parametrize(
    "rank,oracle,labels",
    [
        (_rank_ascending, rank_by_lookup_ascending, [[0, 1], [2, 1]]),
        (_rank_ascending, rank_by_lookup_ascending, [[1, 1]]),
        (_rank_ascending, rank_by_lookup_ascending, [[0, 2, 2]]),
        (_rank_ascending, rank_by_lookup_ascending, [[-1, 2]]),
        (_rank_ascending, rank_by_lookup_ascending, [[3, 5]]),
        (_rank_ascending, rank_by_lookup_ascending, [[5]]),
        (_rank_permutation, rank_by_lookup_permutation, [[0, 1], [1, 1]]),
        (_rank_permutation, rank_by_lookup_permutation, [[2, 3, 2]]),
        (_rank_permutation, rank_by_lookup_permutation, [[-1, 0]]),
        (_rank_permutation, rank_by_lookup_permutation, [[4, 5]]),
        (_rank_permutation, rank_by_lookup_permutation, [[-5]]),
    ],
)
def test_ranks_refuse_labels_outside_their_family(rank, oracle, labels):
    labels = np.array(labels)
    with pytest.raises(PreconditionError):
        rank(labels, 5)
    with pytest.raises(PreconditionError):
        oracle(labels, 5)


PROBE_INPUTS = [
    ("ring-C12", seeded_ring(12, 31)),
    ("ring-C10", seeded_ring(10, 32)),
    ("cube-Q4", seeded_cube(4, 33)),
    *SEEDED,
]


@pytest.mark.parametrize("n", range(2, 10))
def test_builders_match_the_label_rows_route_on_paths(monkeypatch, n):
    g = weighted_path(n)
    z = eigh(g).eigenvectors
    for k in range(1, n + 1):
        assert_same_graph_bytes(symmetric_power(g, k), by_label_rows(monkeypatch, lambda: symmetric_power(g, k)))
        assert_same_bytes(_mirror_permutation(n, k), by_label_rows(monkeypatch, lambda: _mirror_permutation(n, k)))
        assert_same_bytes(_compound(z, k), by_label_rows(monkeypatch, lambda: _compound(z, k)))
        if math.perm(n, k) <= 16384:
            table = _kept_table(n, k)
            assert_same_graph_bytes(kept_graph(g, table), by_label_rows(monkeypatch, lambda: kept_graph(g, table)))


@pytest.mark.parametrize("name,g", PROBE_INPUTS, ids=[name for name, _ in PROBE_INPUTS])
def test_builders_match_the_label_rows_route_off_paths(monkeypatch, name, g):
    for k in (1, 2, 3):
        table = _kept_table(g.n, k)
        assert_same_graph_bytes(kept_graph(g, table), by_label_rows(monkeypatch, lambda: kept_graph(g, table)))
        built = symmetric_power(g, k)
        assert_same_graph_bytes(built, by_label_rows(monkeypatch, lambda: symmetric_power(g, k)))


def test_hot_paths_do_not_search_label_tables():
    # every label lookup in the package is a closed-form rank; the byte-key search lives in the tests only
    names = set()
    for path in Path(hardcore.__file__).parent.glob("*.py"):
        with tokenize.open(path) as handle:
            names |= {tok.string for tok in tokenize.generate_tokens(handle.readline) if tok.type == tokenize.NAME}
    assert "_rank_ascending" in names
    assert "_label_rows" not in names


# The two-ended hop builder the hop graphs replaced, kept as their oracle: every
# stored entry leaving a walker's site is a hop, both ends of each edge are
# ranked, and only the hop with row < col goes in.


def hops_both_ends(g, table):
    start = np.searchsorted(g._rows, np.arange(g.n + 1))
    degree = np.diff(start)
    k = table.shape[1]
    step = max(1, 2**22 // (k * k * max(1, int(degree.max()))))
    for first in range(0, table.shape[0], step):
        block = table[first : first + step]
        count = degree[block].ravel()
        row, slot = np.divmod(np.repeat(np.arange(block.size), count), k)
        entry = np.arange(row.size) + np.repeat(start[block].ravel() - (np.cumsum(count) - count), count)
        target = g._cols[entry]
        free = np.ones(row.size, dtype=bool)
        for site in block.T:
            free &= site[row] != target
        row, slot, target, entry = row[free], slot[free], target[free], entry[free]
        moved = block[row]
        moved[np.arange(row.size), slot] = target
        yield first + row, moved, g._weights[entry]


def ranked_slots(g, hops, sort):
    """Slots (row, col, weight) of ``hops``, in their order, each target ranked in its table."""
    slots = [
        (row, _rank_ascending(np.sort(moved, axis=1), g.n) if sort else _rank_permutation(moved, g.n), weight)
        for row, moved, weight in hops
    ]
    return [np.concatenate(x) for x in zip(*slots)]


def hop_slots_both_ends(g, table, sort):
    rows, cols, weights = ranked_slots(g, hops_both_ends(g, table), sort)
    upper = rows < cols
    return rows[upper], cols[upper], weights[upper]


def hop_slots(g, table, sort):
    return ranked_slots(g, hardcore._hops(g, table), sort)


def hop_graph_both_ends(g, table, loops, sort):
    every = np.arange(table.shape[0])
    rows, cols, weights = hop_slots_both_ends(g, table, sort)
    slots = ((every, rows), (every, cols), (loops, weights))
    return WeightedGraph._from_slots(table.shape[0], *map(np.concatenate, slots))


def assert_same_hops(g, table, sort):
    # every hop lands above the diagonal, so none is dropped; the graph alone would
    # not tell, since an edge built from its lower slot is stored the same
    for built, oracle in zip(hop_slots(g, table, sort), hop_slots_both_ends(g, table, sort)):
        assert_same_bytes(built, oracle)


def symmetric_power_both_ends(g, k):
    table = _ascending(g.n, k)
    return hop_graph_both_ends(g, table, _loops(g)[table].sum(axis=1), sort=True)


def kept_graph_both_ends(g, table):
    return hop_graph_both_ends(g, table, np.add.accumulate(_loops(g)[table], axis=1)[:, -1], sort=False)


def hop_oracle_inputs():
    """Weighted, simple and looped paths, and dense random graphs with self-loops and signed weights."""
    rng = np.random.default_rng(20261020)
    graphs = []
    for n in range(2, 10):
        graphs += [(f"weighted{n}", weighted_path(n)), (f"simple{n}", simple_path(n))]
        looped = weighted_path(n).adjacency + np.diag(rng.uniform(-1.0, 1.0, n))
        graphs.append((f"looped{n}", WeightedGraph(n, looped)))
    for n in (5, 7, 8):
        upper = np.triu(rng.uniform(-2.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.8))
        graphs.append((f"dense{n}", WeightedGraph(n, upper + np.triu(upper, 1).T)))
    return graphs


HOP_INPUTS = hop_oracle_inputs() + SEEDED


@pytest.mark.parametrize("name,g", HOP_INPUTS, ids=[name for name, _ in HOP_INPUTS])
def test_hop_graphs_match_the_two_ended_builder(name, g):
    for k in range(1, g.n + 1):
        assert_same_hops(g, _ascending(g.n, k), sort=True)
        assert_same_graph_bytes(symmetric_power(g, k), symmetric_power_both_ends(g, k))
        if math.perm(g.n, k) <= 16384:
            table = _kept_table(g.n, k)
            assert_same_hops(g, table, sort=False)
            assert_same_graph_bytes(kept_graph(g, table), kept_graph_both_ends(g, table))


def test_hop_graphs_match_the_two_ended_builder_on_q4_and_across_blocks():
    g, table = hypercube(4), _kept_table(16, 2)
    assert_same_hops(g, _ascending(16, 2), sort=True)
    assert_same_hops(g, table, sort=False)
    assert_same_graph_bytes(symmetric_power(g, 2), symmetric_power_both_ends(g, 2))
    assert_same_graph_bytes(kept_graph(g, table), kept_graph_both_ends(g, table))
    # dense weights with k close to n: the hops toward higher sites still span several row blocks
    n, k = 36, 34
    upper = np.triu(np.random.default_rng(11).uniform(-1.0, 1.0, (n, n)))
    g = WeightedGraph(n, upper + np.triu(upper, 1).T)
    upper_degree = int(np.bincount(g._rows[g._rows < g._cols]).max())
    assert 2**22 // (k * k * upper_degree) < math.comb(n, k)
    assert_same_hops(g, _ascending(n, k), sort=True)
    assert_same_graph_bytes(symmetric_power(g, k), symmetric_power_both_ends(g, k))
