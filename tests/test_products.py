"""Cartesian power and label arithmetic tests."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstlab import (
    InvalidSizeError,
    OccupationLabel,
    ResourceCapError,
    cartesian_power,
    eigh,
    evolve,
    hypercube,
    simple_path,
    weighted_path,
)
from pstlab.products import _digits


def kron_sum(a, b):
    """Oracle: the Kronecker sum a (+) b, the adjacency of the Cartesian product."""
    return np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b)


def test_label_index_examples():
    assert _digits(np.array([0, 1, 4]), 4, 2).tolist() == [[0, 0], [0, 1], [1, 0]]
    # first coordinate is the most significant digit
    assert OccupationLabel((1, 2), 4).index == 1
    assert OccupationLabel((2, 1), 4).index == 4
    assert OccupationLabel((3, 1, 4), 4).index == 2 * 16 + 0 * 4 + 3


def test_label_of_index_exact_past_int64():
    # the flat index is a Python int, exact where 3**50 passes int64
    assert OccupationLabel((3,) * 49 + (2,), 3).index == 3**50 - 2


def test_label_round_trip():
    n, k = 3, 3
    labels = _digits(np.arange(n**k), n, k) + 1
    assert [OccupationLabel(tuple(lab), n).index for lab in labels.tolist()] == list(range(n**k))
    assert set(map(tuple, labels.tolist())) == set(itertools.product(range(1, n + 1), repeat=k))


def test_label_predicates():
    assert OccupationLabel((2,), 5).k == 1


def test_label_validation():
    with pytest.raises(InvalidSizeError):
        OccupationLabel((0, 1), 3)
    with pytest.raises(InvalidSizeError):
        OccupationLabel((1, 4), 3)
    with pytest.raises(InvalidSizeError):
        OccupationLabel((), 3)


def test_product_neighbor_weights():
    g = weighted_path(4)
    gg = cartesian_power(g, 2)
    assert gg.n == 16
    # vertex (1,2) has index 1; neighbours (1,1),(1,3),(2,2)
    i = OccupationLabel((1, 2), 4).index
    row = gg.adjacency[i]
    nz = {j: row[j] for j in np.nonzero(row)[0]}
    expected = {
        OccupationLabel((1, 1), 4).index: math.sqrt(3.0),
        OccupationLabel((1, 3), 4).index: 2.0,
        OccupationLabel((2, 2), 4).index: math.sqrt(3.0),
    }
    assert set(nz) == set(expected)
    for j, w in expected.items():
        assert nz[j] == pytest.approx(w, abs=0.0)


def test_product_spectrum_is_pairwise_sums():
    g = simple_path(4)
    vals = eigh(cartesian_power(g, 2)).eigenvalues
    a = eigh(g).eigenvalues
    expected = np.sort(np.add.outer(a, a).ravel())
    assert np.abs(vals - expected).max() <= 1e-8


def test_power_of_edge_is_hypercube():
    p2 = simple_path(2)
    for k in (1, 2, 3, 4):
        assert np.array_equal(cartesian_power(p2, k).adjacency, hypercube(k).adjacency)


def test_power_one_is_copy():
    g = weighted_path(5)
    assert np.array_equal(cartesian_power(g, 1).adjacency, g.adjacency)


def test_power_matches_iterated_product():
    a = weighted_path(3).adjacency
    assert np.array_equal(cartesian_power(weighted_path(3), 3).adjacency, kron_sum(kron_sum(a, a), a))


def test_summands_commute():
    g = weighted_path(4)
    left = np.kron(g.adjacency, np.eye(g.n))
    right = np.kron(np.eye(g.n), g.adjacency)
    assert np.abs(left @ right - right @ left).max() <= 1e-12
    assert np.abs(left + right - cartesian_power(g, 2).adjacency).max() == 0.0


@pytest.mark.parametrize("n,k,t", [(3, 2, 0.7), (4, 2, math.pi / 2.0), (3, 3, 1.3)])
def test_propagator_factorization(n, k, t):
    # the Kronecker-sum terms commute, so U_{G^k}(t) is the k-fold tensor power of U_G(t)
    g = weighted_path(n)
    tensor = functools.reduce(np.kron, [evolve(eigh(g), t)] * k)
    assert np.abs(evolve(eigh(cartesian_power(g, k)), t) - tensor).max() <= 1e-10


def test_power_cap(monkeypatch):
    with pytest.raises(ResourceCapError):
        cartesian_power(weighted_path(10), 5)
    monkeypatch.setenv("PSTLAB_CAP", "24")
    with pytest.raises(ResourceCapError):
        cartesian_power(weighted_path(5), 2)
    monkeypatch.setenv("PSTLAB_CAP", "25")
    assert cartesian_power(weighted_path(5), 2).n == 25


def test_power_k_validation():
    with pytest.raises(InvalidSizeError):
        cartesian_power(weighted_path(3), 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3))
def test_label_round_trip_property(n, k):
    indices = np.arange(0, n**k, max(1, n**k // 7))
    for i, sites in zip(indices.tolist(), (_digits(indices, n, k) + 1).tolist()):
        assert OccupationLabel(tuple(sites), n).index == i
