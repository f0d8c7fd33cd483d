"""Shared fixtures: ad-hoc graph construction and the partition fixture zoo."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from pstlab import (
    Partition,
    WeightedGraph,
    hypercube,
    orbit_partition,
    reflection_permutation,
    simple_path,
    symmetric_power,
    weighted_path,
    deletion_mask,
    indistinguishability_partition,
    mirror_partition,
)
from pstlab import hardcore
from pstlab.graph_core import _loops


def graph_from_edges(n: int, edges: list[tuple[int, int, float]]) -> WeightedGraph:
    a = np.zeros((n, n))
    for u, v, w in edges:
        a[u - 1, v - 1] = w
        a[v - 1, u - 1] = w
    return WeightedGraph(n, a)


# Written into the document text as the token 1e400, which json reads as inf.
HUGE_FLOAT = "huge-float-token"

# Field values a graph or partition document may not hold, and the integers on
# either side of the float range (2**1024 - 2**970 is the first that overflows).
ODD_VALUES = (
    True, False, None, "1", [1], {}, 1.5, 10**400, HUGE_FLOAT,
    2**1024 - 2**970, -(2**1024 - 2**970), 2**1024 - 2**970 - 1,
)


@st.composite
def graph_documents(draw, sizes=st.integers(1, 5), reals=st.floats(allow_nan=False, allow_infinity=False)) -> str:
    """Text of a graph document, valid or not, with ``n`` from ``sizes``.

    A list of distinct slots with finite weights, into which up to three
    faults are inserted: a repeat of a listed slot with the same or another
    weight, a triple whose fields may be any of ODD_VALUES or out of range, a
    list of another length, or an item that is no list at all.
    """
    n = draw(sizes)
    odd = st.sampled_from(ODD_VALUES)
    weight = st.sampled_from([1.0, -1.0, 2.5, 0.0, -0.0, 1, 3]) | reals
    triple = st.tuples(st.integers(1, n), st.integers(1, n), weight).map(list)
    edges = draw(st.lists(triple, max_size=8, unique_by=lambda e: (min(e[:2]), max(e[:2]))))
    end = st.integers(-1, n + 2) | odd
    fault = st.tuples(end, end, weight | odd).map(list) | st.lists(end, max_size=4) | odd
    if edges:
        listed = st.sampled_from(edges)
        fault = fault | listed.map(lambda e: [e[1], e[0], e[2]]) | st.tuples(listed, weight).map(lambda e: [*e[0][:2], e[1]])
    for _ in range(draw(st.integers(0, 3))):
        edges.insert(draw(st.integers(0, len(edges))), draw(fault))
    return json.dumps({"n": n, "edges": edges}).replace(json.dumps(HUGE_FLOAT), "1e400")


@st.composite
def partition_documents(draw, sizes=st.integers(1, 5)) -> str:
    """Text of a partition document: two times in three a true partition of 1..n."""
    n = draw(sizes)
    if draw(st.integers(0, 2)):
        ids = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        cells = [[v + 1 for v in range(n) if ids[v] == c] for c in sorted(set(ids))]
    else:
        member = st.integers(0, n + 1) | st.sampled_from(ODD_VALUES)
        cells = draw(st.lists(st.lists(member, max_size=4) | st.sampled_from(ODD_VALUES), max_size=5))
    return json.dumps({"n": n, "cells": cells}).replace(json.dumps(HUGE_FLOAT), "1e400")


def kept_graph(g: WeightedGraph, table: np.ndarray) -> WeightedGraph:
    """``apply_deletion(cartesian_power(g, k), deletion_mask(g.n, k))`` on ``table = _kept_table(g.n, k)``, from the hops.

    The deleted power as an edge list, kept as the oracle of
    ``hardcore._kept_components``: each hop keeps its walker's slot and is
    ranked by its Lehmer code, and the self-loops of the k slots are
    accumulated first slot first, as the Kronecker sum adds them, so the
    result equals the dense build array for array. The ranks are looked up on
    the module at call time, so a test may swap them for an oracle.
    """
    every = np.arange(table.shape[0])
    rows, cols, weights = [every], [every], [np.add.accumulate(_loops(g)[table], axis=1)[:, -1]]
    for row, moved, weight in hardcore._hops(g, table):
        rows.append(row)
        cols.append(hardcore._rank_permutation(moved, g.n))
        weights.append(weight)
    return WeightedGraph._from_slots(table.shape[0], *map(np.concatenate, (rows, cols, weights)))


def cycle_graph(n: int) -> WeightedGraph:
    edges = [(v, v + 1, 1.0) for v in range(1, n)] + [(1, n, 1.0)]
    return graph_from_edges(n, edges)


def seeded_ring(n: int, seed: int) -> WeightedGraph:
    """The ring C_n with edge weights drawn uniformly from [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for v in range(n):
        a[v, (v + 1) % n] = a[(v + 1) % n, v] = rng.uniform(0.5, 1.5)
    return WeightedGraph(n, a)


def seeded_chain(n: int, seed: int, cycle: bool, signed: bool = False, loops: bool = False) -> WeightedGraph:
    """A path, or with ``cycle`` a ring, through the n vertices in a seeded random order.

    Edge weights are drawn uniformly from [0.5, 1.5], each with a random sign
    when ``signed``; with ``loops`` each vertex carries, with probability 0.4,
    a self-loop drawn from [-1, 1].
    """
    rng = np.random.default_rng(seed)
    visit = rng.permutation(n)
    a = np.zeros((n, n))
    for e in range(n if cycle else n - 1):
        u, v = visit[e], visit[(e + 1) % n]
        a[u, v] = a[v, u] = rng.uniform(0.5, 1.5) * (rng.choice([-1.0, 1.0]) if signed else 1.0)
    if loops:
        a[np.diag_indices(n)] = np.where(rng.random(n) < 0.4, rng.uniform(-1.0, 1.0, n), 0.0)
    return WeightedGraph(n, a)


def seeded_cube(dim: int, seed: int) -> WeightedGraph:
    """The hypercube Q_dim with edge weights drawn uniformly from [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    weights = np.triu(rng.uniform(0.5, 1.5, size=(2**dim, 2**dim)), 1)
    return WeightedGraph(2**dim, hypercube(dim).adjacency * (weights + weights.T))


def hamming_partition(dim: int) -> Partition:
    """Cells of a hypercube's vertices grouped by binary weight."""
    cells = tuple(
        tuple(v + 1 for v in range(2**dim) if bin(v).count("1") == w)
        for w in range(dim + 1)
    )
    return Partition(2**dim, cells)


def mirror_path_partition(n: int) -> Partition:
    g = weighted_path(n)
    return orbit_partition(g, reflection_permutation(n))


def _zoo() -> list[tuple[str, WeightedGraph, Partition, bool]]:
    fixtures: list[tuple[str, WeightedGraph, Partition, bool]] = []

    fixtures.append(("q3-hamming", hypercube(3), hamming_partition(3), True))
    fixtures.append(("q4-hamming", hypercube(4), hamming_partition(4), True))
    for n in range(4, 9):
        fixtures.append((f"p{n}-mirror", weighted_path(n), mirror_path_partition(n), True))
    g5 = weighted_path(5)
    fixtures.append(
        ("p5-singletons", g5, Partition(5, tuple((v,) for v in range(1, 6))), True)
    )
    fixtures.append(("q3-one-cell", hypercube(3), Partition(8, (tuple(range(1, 9)),)), True))
    fixtures.append(("c4-one-cell", cycle_graph(4), Partition(4, ((1, 2, 3, 4),)), True))
    for n, k in ((4, 2), (5, 2), (6, 2)):
        ident = symmetric_power(weighted_path(n), k)
        fixtures.append((f"sp{n}{k}-mirror", ident, mirror_partition(ident, n, k), True))
    sp42 = symmetric_power(weighted_path(4), 2)
    fixtures.append(
        ("sp42-collapse", sp42, Partition(6, ((1,), (2,), (3, 4), (5,), (6,))), True)
    )
    from pstlab import apply_deletion, cartesian_power

    for n, k in ((4, 2), (5, 2)):
        mask = deletion_mask(n, k)
        kept = apply_deletion(cartesian_power(weighted_path(n), k), mask)
        fixtures.append(
            (f"kept{n}{k}-multiset", kept, indistinguishability_partition(mask, n, k), True)
        )

    fixtures.append(("p3-lopsided", simple_path(3), Partition(3, ((1, 2), (3,))), False))
    fixtures.append(("p4-halves", weighted_path(4), Partition(4, ((1, 2), (3, 4))), False))
    fixtures.append(
        ("p5-unbalanced", weighted_path(5), Partition(5, ((1, 2), (3, 4, 5))), False)
    )
    fixtures.append(
        ("q3-split", hypercube(3), Partition(8, ((1, 2, 3), (4, 5, 6, 7, 8))), False)
    )
    fixtures.append(
        ("p6-parity", weighted_path(6), Partition(6, ((1, 3, 5), (2, 4, 6))), False)
    )
    skew = graph_from_edges(4, [(1, 2, 1.0), (2, 3, 2.0), (3, 4, 3.0)])
    fixtures.append(("skew-mirror", skew, Partition(4, ((1, 4), (2, 3))), False))

    return fixtures


@pytest.fixture(scope="session")
def partition_zoo() -> list[tuple[str, WeightedGraph, Partition, bool]]:
    return _zoo()
