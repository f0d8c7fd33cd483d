"""Hard-core restriction, component structure and the symmetric power."""

import itertools
import math

import numpy as np
import pytest

from pstlab import (
    InvalidSizeError,
    InvariantViolationError,
    OccupationLabel,
    Partition,
    PreconditionError,
    apply_deletion,
    ascending_labels,
    c_operator,
    cartesian_power,
    commutator_check_antisymmetry,
    component_isomorphism_check,
    decompose_components,
    deletion_mask,
    eigh,
    indistinguishability_partition,
    mirror_partition,
    normalized_partition_matrix,
    quotient,
    symmetric_power,
    unit_antisymmetry,
    weighted_path,
)

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
    assert ascending in [decomp.labels[i] for i in comps[decomp.canonical]]
    assert decomp.canonical == 0


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


def test_mirror_partition_rejects_labels_outside_image():
    # the mirror of (1, 2) on 4 sites is (3, 4), which this list lacks
    sg = symmetric_power(weighted_path(3), 2)
    with pytest.raises(PreconditionError):
        mirror_partition(sg, 4, 2, labels=((1, 2), (1, 3), (2, 3)))
