"""Builders, file round trips and the reflection permutation."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstlab import (
    AsymmetryError,
    DuplicateEdgeError,
    FormatError,
    InvalidSizeError,
    NonFiniteWeightError,
    PreconditionError,
    ResourceCapError,
    WeightedGraph,
    hypercube,
    load_graph,
    reflection_permutation,
    resolve_size_cap,
    save_graph,
    simple_path,
    symmetric_power,
    weighted_path,
)
from pstlab.graph_core import _parse_json, _reject_constant

from conftest import HUGE_FLOAT, graph_documents, graph_from_edges


def test_weighted_path_frozen_weights():
    g4 = weighted_path(4)
    assert g4.adjacency[0, 1] == math.sqrt(3.0)
    assert g4.adjacency[1, 2] == 2.0
    assert g4.adjacency[2, 3] == math.sqrt(3.0)
    g5 = weighted_path(5)
    assert g5.adjacency[0, 1] == 2.0
    assert g5.adjacency[1, 2] == math.sqrt(6.0)
    assert g5.adjacency[2, 3] == math.sqrt(6.0)
    assert g5.adjacency[3, 4] == 2.0


@given(st.integers(min_value=2, max_value=40))
def test_weighted_path_mirror_symmetric(n):
    a = weighted_path(n).adjacency
    assert np.array_equal(a, a[::-1, ::-1])


def test_simple_path_structure():
    g = simple_path(4)
    expected = np.zeros((4, 4))
    for v in range(3):
        expected[v, v + 1] = expected[v + 1, v] = 1.0
    assert np.array_equal(g.adjacency, expected)


@pytest.mark.parametrize("bad", [0, 1, -3])
def test_path_builders_reject_small_n(bad):
    with pytest.raises(InvalidSizeError):
        weighted_path(bad)
    with pytest.raises(InvalidSizeError):
        simple_path(bad)


def test_hypercube_structure():
    g = hypercube(3)
    a = g.adjacency
    assert g.n == 8
    # neighbours of 000 are 001, 010, 100 in binary-string order
    assert sorted(np.flatnonzero(a[0]) + 1) == [2, 3, 5]
    assert np.count_nonzero(a) == 2 * 3 * 2**2
    degrees = a.sum(axis=0)
    assert np.array_equal(degrees, np.full(8, 3.0))


@pytest.mark.parametrize("dim", [1, 2, 4, 5])
def test_hypercube_regularity_and_edge_count(dim):
    a = hypercube(dim).adjacency
    assert np.array_equal(a.sum(axis=0), np.full(2**dim, float(dim)))
    assert np.count_nonzero(a) == 2 * dim * 2 ** (dim - 1)


def hypercube_by_kronecker(dim: int) -> np.ndarray:
    # reference construction: Kronecker sums with a single edge, the new
    # coordinate becoming the most significant bit
    edge = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = edge
    for _ in range(dim - 1):
        a = np.kron(edge, np.eye(a.shape[0])) + np.kron(np.eye(2), a)
    return a


@pytest.mark.parametrize("dim", range(1, 9))
def test_hypercube_equals_kronecker_construction(dim):
    a = hypercube(dim).adjacency
    assert a.tobytes() == hypercube_by_kronecker(dim).tobytes()


def test_hypercube_cap(monkeypatch):
    with pytest.raises(ResourceCapError):
        hypercube(15)
    monkeypatch.setenv("PSTLAB_CAP", "8")
    assert hypercube(3).n == 8  # building exactly at the cap is legal
    monkeypatch.setenv("PSTLAB_CAP", "7")
    with pytest.raises(ResourceCapError):
        hypercube(3)


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("PSTLAB_CAP", "4")
    with pytest.raises(ResourceCapError):
        hypercube(3)
    assert hypercube(2).n == 4
    monkeypatch.setenv("PSTLAB_CAP", "banana")
    with pytest.raises(InvalidSizeError):
        resolve_size_cap()
    monkeypatch.delenv("PSTLAB_CAP")
    assert resolve_size_cap() == 16384
    monkeypatch.setenv("PSTLAB_CAP", "100")
    assert resolve_size_cap() == 100


def test_round_trip_bit_for_bit():
    g = weighted_path(7)
    again = load_graph(save_graph(g))
    assert np.array_equal(again.adjacency, g.adjacency)
    loops = graph_from_edges(3, [(1, 1, 0.25), (1, 2, 1.0 / 3.0)])
    again = load_graph(save_graph(loops))
    assert np.array_equal(again.adjacency, loops.adjacency)


def save_graph_by_loop(g: WeightedGraph) -> str:
    # reference serializer: every upper-triangle slot in (u, v) order
    edges = []
    for u in range(g.n):
        for v in range(u, g.n):
            w = g.adjacency[u, v]
            if w != 0.0:
                edges.append([u + 1, v + 1, float(w)])
    return json.dumps({"n": g.n, "edges": edges})


def test_save_graph_matches_loop_serializer():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(12, 12))
    a[rng.random((12, 12)) < 0.5] = 0.0
    a = a + a.T
    a[2, 2] = -0.0  # a signed zero is not an edge
    a[4, 7] = a[7, 4] = -0.0
    a[5, 5] = 1.5  # self-loop
    graphs = [
        WeightedGraph(12, a),
        weighted_path(9),
        hypercube(5),
        symmetric_power(hypercube(4), 2),
        WeightedGraph(1, np.zeros((1, 1))),
    ]
    for g in graphs:
        assert save_graph(g) == save_graph_by_loop(g)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**31 - 1))
def test_save_graph_matches_loop_serializer_on_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
    g = WeightedGraph(n, a + a.T)
    text = save_graph(g)
    assert text == save_graph_by_loop(g)
    assert np.array_equal(load_graph(text).adjacency, g.adjacency)


def test_load_graph_accepts_self_loop():
    g = load_graph('{"n": 2, "edges": [[1, 1, 2.5], [1, 2, 1.0]]}')
    assert g.adjacency[0, 0] == 2.5


def test_load_graph_rejects_conflicting_weights():
    doc = '{"n": 2, "edges": [[1, 2, 1.0], [2, 1, 2.0]]}'
    with pytest.raises(AsymmetryError):
        load_graph(doc)


def test_load_graph_rejects_duplicates():
    doc = '{"n": 2, "edges": [[1, 2, 1.0], [2, 1, 1.0]]}'
    with pytest.raises(DuplicateEdgeError):
        load_graph(doc)


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "edges": [[1, 2, Infinity]]}',
        '{"n": 2, "edges": [[1, 2, NaN]]}',
        '{"n": 2, "edges": [[1, 2, -Infinity]]}',
    ],
)
def test_load_graph_rejects_non_finite(doc):
    with pytest.raises(NonFiniteWeightError):
        load_graph(doc)


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"n": 2}',
        '{"n": 2, "edges": [[1, 2]]}',
        '{"n": 2, "edges": [[0, 1, 1.0]]}',
        '{"n": 2, "edges": [[1, 3, 1.0]]}',
        '{"n": 2, "edges": [[1, 2, "x"]]}',
        '{"n": -1, "edges": []}',
        '{"n": 2, "edges": [], "extra": 1}',
        '{"n": true, "edges": []}',
    ],
)
def test_load_graph_rejects_malformed(doc):
    with pytest.raises(FormatError):
        load_graph(doc)


def test_parse_error_carries_line_number():
    with pytest.raises(FormatError, match="line 2"):
        load_graph('{"n": 2,\n "edges": [[1, 2,]]}')


def test_weighted_graph_validation():
    with pytest.raises(AsymmetryError):
        WeightedGraph(2, np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NonFiniteWeightError):
        WeightedGraph(1, np.array([[math.inf]]))
    with pytest.raises(InvalidSizeError):
        WeightedGraph(3, np.zeros((2, 2)))


def test_adjacency_is_read_only():
    g = weighted_path(3)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 5.0


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_reflection_conjugation_fixes_paths(n):
    perm = reflection_permutation(n)
    assert np.array_equal(perm[perm], np.arange(n))
    for g in (weighted_path(n), simple_path(n)):
        conj = g.adjacency[np.ix_(perm, perm)]
        assert np.array_equal(conj, g.adjacency)


def test_reflection_fixes_midpoint_when_odd():
    perm = reflection_permutation(5)
    assert perm[2] == 2
    assert not np.any(reflection_permutation(4) == np.arange(4))


# Edge storage: a graph built from its nonzeros must equal the graph built
# from the dense array, array for array.

_EDGE_ARRAYS = ("_rows", "_cols", "_weights")


def assert_same_graph(g, ref):
    assert g.n == ref.n
    for name in _EDGE_ARRAYS:
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert g.adjacency.tobytes() == ref.adjacency.tobytes()


def _random_slots(rng, n):
    """Distinct u <= v slots in shuffled order: self-loops, both signs, zero weights, isolated vertices."""
    u, v = np.triu_indices(n)
    isolated = rng.random(n) < 0.2
    pick = (rng.random(u.size) < 0.4) & ~isolated[u] & ~isolated[v]
    u, v = u[pick], v[pick]
    w = rng.normal(size=u.size)
    zero = rng.random(u.size) < 0.15
    w[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    order = rng.permutation(u.size)
    return u[order], v[order], w[order]


def _dense_from_slots(n, u, v, w):
    a = np.zeros((n, n))
    a[u, v] = w
    a[v, u] = w
    a[a == 0.0] = 0.0  # a zero-weight slot is no edge, whatever its sign
    return a


def test_edge_built_graph_equals_dense_built():
    seen = dict(loops=0, negative=0, zero=0, isolated=0)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        u, v, w = _random_slots(rng, n)
        ref = WeightedGraph(n, _dense_from_slots(n, u, v, w))
        assert_same_graph(WeightedGraph._from_slots(n, u, v, w), ref)
        # the same slots as a JSON document, endpoints in either order
        swap = rng.random(u.size) < 0.5
        first, second = np.where(swap, v, u) + 1, np.where(swap, u, v) + 1
        edges = [[a, b, x] for a, b, x in zip(first.tolist(), second.tolist(), w.tolist())]
        assert_same_graph(load_graph(json.dumps({"n": n, "edges": edges})), ref)
        seen["loops"] += int(np.count_nonzero((u == v) & (w != 0.0)))
        seen["negative"] += int(np.count_nonzero(w < 0.0))
        seen["zero"] += int(np.count_nonzero(w == 0.0))
        seen["isolated"] += n - np.unique(np.concatenate([u[w != 0.0], v[w != 0.0]])).size
    assert min(seen.values()) > 0, seen


def test_from_slots_refuses_a_lower_slot_or_a_repeated_edge():
    # the slot (0, 1) in both orders would be stored twice, while adjacency shows one 1.0
    with pytest.raises(PreconditionError, match=r"^slot \(1, 0\) has u > v$"):
        WeightedGraph._from_slots(2, [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(PreconditionError, match=r"^edge \(0, 1\) listed twice$"):
        WeightedGraph._from_slots(2, [0, 0], [1, 1], [1.0, 2.0])
    with pytest.raises(PreconditionError, match=r"^edge \(2, 2\) listed twice$"):
        WeightedGraph._from_slots(3, [2, 0, 2], [2, 1, 2], [1.0, 1.0, -3.0])
    # a zero weight is no edge, so its slot stores nothing and repeats nothing
    g = WeightedGraph._from_slots(3, [0, 2, 0, 1], [1, 2, 1, 1], [1.0, 0.0, -0.0, 0.0])
    assert g._rows.tolist() == [0, 1] and g._cols.tolist() == [1, 0]


def test_path_builders_equal_the_dense_loop():
    # both paths come from their n - 1 edges; the dense loop they replaced is the oracle
    for n in range(2, 201):
        weighted, simple = np.zeros((n, n)), np.zeros((n, n))
        for v in range(1, n):
            weighted[v - 1, v] = weighted[v, v - 1] = math.sqrt(v * (n - v))
            simple[v - 1, v] = simple[v, v - 1] = 1.0
        assert_same_graph(weighted_path(n), WeightedGraph(n, weighted))
        assert_same_graph(simple_path(n), WeightedGraph(n, simple))


@pytest.mark.parametrize("dim", range(1, 9))
def test_hypercube_edges_equal_dense_built(dim):
    assert_same_graph(hypercube(dim), WeightedGraph(2**dim, hypercube_by_kronecker(dim)))


def test_round_trip_keeps_edge_arrays():
    rng = np.random.default_rng(11)
    u, v, w = _random_slots(rng, 20)
    graphs = [hypercube(6), WeightedGraph(20, _dense_from_slots(20, u, v, w)), weighted_path(9)]
    for g in graphs:
        assert_same_graph(load_graph(save_graph(g)), g)
        again = pickle.loads(pickle.dumps(g))
        assert_same_graph(again, g)
        assert not again._weights.flags.writeable


def test_dense_validation_matches_full_symmetry_check():
    def with_pair(x, y):
        a = np.array([[0.5, 1.0], [1.0, 0.0]])
        a[0, 1], a[1, 0] = x, y
        return a

    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteWeightError):
            WeightedGraph(2, with_pair(bad, bad))
        # finiteness is checked before symmetry, as before
        with pytest.raises(NonFiniteWeightError):
            WeightedGraph(2, with_pair(bad, 1.0))
    with pytest.raises(NonFiniteWeightError):
        WeightedGraph(2, np.diag([1.0, math.nan]))
    with pytest.raises(AsymmetryError):
        WeightedGraph(2, with_pair(np.nextafter(1.0, 2.0), 1.0))
    with pytest.raises(AsymmetryError):
        WeightedGraph(2, with_pair(0.0, 5e-324))
    # -0.0 facing 0.0 is symmetric, like np.array_equal(a, a.T) says; neither is an edge
    g = WeightedGraph(2, with_pair(-0.0, 0.0))
    assert g._weights.tolist() == [0.5]
    assert np.signbit(g.adjacency[0, 1])  # the copy is kept as given


def test_graph_is_immutable():
    a = np.array(weighted_path(4).adjacency)
    from_array = WeightedGraph(4, a)
    a[0, 1] = 9.0  # the graph holds a copy
    assert from_array.adjacency[0, 1] == math.sqrt(3.0)
    for g in (from_array, hypercube(3), load_graph(save_graph(hypercube(2)))):
        assert g.adjacency is g.adjacency  # scattered once, then cached
        for arr in (g.adjacency, g._rows, g._cols, g._weights):
            with pytest.raises(ValueError):
                arr[0] = 7
        for name in ("n", "adjacency", "_rows", "_weights", "_dense", "extra"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
        with pytest.raises(AttributeError):
            del g.n


def test_load_graph_oversized_integer_tokens():
    with pytest.raises(NonFiniteWeightError, match="overflows"):
        load_graph('{"n": 2, "edges": [[1, 2, 1' + "0" * 400 + "]]}")
    # past Python's digit limit for int(), json.loads itself fails
    with pytest.raises(FormatError):
        load_graph('{"n": 2, "edges": [[1, 2, 1' + "0" * 5000 + "]]}")


def load_graph_by_loop(text: str) -> WeightedGraph:
    # reference loader: every edge checked in document order, one at a time
    doc = _parse_json(text, parse_constant=_reject_constant)
    if not isinstance(doc, dict):
        raise FormatError("graph document must be a JSON object")
    extra = set(doc) - {"n", "edges"}
    if extra:
        raise FormatError(f"unknown graph keys: {sorted(extra)}")
    if "n" not in doc or "edges" not in doc:
        raise FormatError('graph document needs both "n" and "edges"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f'"n" must be a positive integer, got {n!r}')
    limit = resolve_size_cap()
    if n > limit:
        raise ResourceCapError(f"graph document has {n} vertices, cap is {limit}")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise FormatError('"edges" must be a list')
    seen: dict[tuple[int, int], float] = {}
    for pos, item in enumerate(edges):
        if not isinstance(item, list) or len(item) != 3:
            raise FormatError(f"edge {pos} must be a [u, v, w] triple, got {item!r}")
        u, v, w = item
        for end in (u, v):
            if isinstance(end, bool) or not isinstance(end, int):
                raise FormatError(f"edge {pos} endpoint {end!r} is not an integer")
            if not 1 <= end <= n:
                raise FormatError(f"edge {pos} endpoint {end} outside 1..{n}")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise FormatError(f"edge {pos} weight {w!r} is not a number")
        try:
            w = float(w)
        except OverflowError:
            raise NonFiniteWeightError(f"edge {pos} weight overflows a float") from None
        if not math.isfinite(w):
            raise NonFiniteWeightError(f"edge {pos} weight is not finite")
        slot = (min(u, v), max(u, v))
        if slot in seen:
            if seen[slot] != w:
                raise AsymmetryError(f"edge {slot} listed with weights {seen[slot]!r} and {w!r}")
            raise DuplicateEdgeError(f"edge {slot} listed twice")
        seen[slot] = w
    slots = np.array(list(seen), dtype=np.intp).reshape(-1, 2) - 1
    weights = np.fromiter(seen.values(), float, len(seen))
    return WeightedGraph._from_slots(n, slots[:, 0], slots[:, 1], weights)


def load_outcome(load, text: str) -> tuple:
    # the exception class and message, or the stored arrays with their dtypes
    try:
        g = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    return g.n, *((a.dtype.str, a.tobytes()) for a in (g._rows, g._cols, g._weights))


def assert_loads_like_the_loop(text: str) -> None:
    assert load_outcome(load_graph, text) == load_outcome(load_graph_by_loop, text)


_BIG = 2**1024 - 2**970  # the first integer float() cannot convert


@pytest.mark.parametrize(
    "edges",
    [
        [],
        [[1, 2, 1.0], [2, 3, -0.0], [3, 3, 0.0], [1, 1, 2.5]],
        [[True, 2, 1.0]],
        [[1, False, 1.0]],
        [[1, 2, True]],
        [[1, 2, 1.0], [2, 3, False]],
        [[10**400, 2, 1.0]],
        [[1, -(10**400), 1.0]],
        [[1, 2, 10**400]],
        [[1, 2, _BIG]],
        [[1, 2, -_BIG]],
        [[1, 2, _BIG - 1], [2, 3, -(_BIG - 1)]],
        [[1, 2, HUGE_FLOAT]],
        [[1, 2, 1.0], 7],
        [[1, 2, 1.0], None, [2, 3]],
        [[1, 2]],
        [[1, 2, 1.0, 4]],
        [[1, 2, 1.0], "edge"],
        [[1, 2, 1.5], [2, 1, 1.5]],
        [[1, 2, 1.5], [2, 1, 2.5]],
        [[2, 2, 1.0], [2, 2, 1.0]],
        [[1, 2, 0.0], [2, 1, -0.0]],
        [[1, 2, -0.0], [2, 1, 0.0], [1, 2, 1.0]],
        [[1, 2, 1], [2, 1, 1.0]],
        [[1, 3, 1.0], [1, 2, 1.0], [2, 3, 4.0], [3, 2, 5.0], [1, 2, 1.0]],
        [[1, 2, 1.0], [0, 2, 1.0], [2, 1, 3.0]],
        [[1, 2, 1.0], [2, 1, 3.0], [0, 2, 1.0]],
        [[1, 2, 1.0], [1, 2, "x"]],
        [[1, 4, 1.0], [1, 2, 1.0], [1, 2, 2.0]],
        [[1, 2, 1.0], [3, "1", 1.0], [1, 2, 1.0]],
        [[3, 1, 1.0], [2, 3, HUGE_FLOAT], [1, 3, 2.0]],
        [[1, 2, 1.0], [2, 3, 10**400], [1, 0, 1.0]],
    ],
)
def test_load_graph_matches_the_edge_loop(edges):
    text = json.dumps({"n": 3, "edges": edges}).replace(json.dumps(HUGE_FLOAT), "1e400")
    assert_loads_like_the_loop(text)


def test_load_graph_matches_the_edge_loop_past_int32_vertex_counts(monkeypatch):
    # endpoints past int32, where a slot code min*(n+1)+max would overflow int64
    n = 2**40
    monkeypatch.setenv("PSTLAB_CAP", str(n))
    for edges in ([[1, n, 1.0], [n, n, 2.0]], [[1, n, 1.0], [n, 1, 1.0]], [[n, 1, 1.0], [1, n, 2.0]]):
        assert_loads_like_the_loop(json.dumps({"n": n, "edges": edges}))


@settings(max_examples=300, deadline=None)
@given(graph_documents())
def test_load_graph_matches_the_edge_loop_on_fuzzed_documents(text):
    assert_loads_like_the_loop(text)


def test_load_graph_matches_the_edge_loop_on_shuffled_hypercubes():
    # endpoints swapped on every other edge; then every slot listed again with another weight
    g = hypercube(6)
    upper = g._rows <= g._cols
    edges = [[int(u) + 1, int(v) + 1, 1.0] for u, v in zip(g._rows[upper], g._cols[upper])]
    rng = np.random.default_rng(3)
    for _ in range(8):
        doc = [edges[i] if i % 2 else [edges[i][1], edges[i][0], 1.0] for i in rng.permutation(len(edges))]
        text = json.dumps({"n": g.n, "edges": doc})
        assert_loads_like_the_loop(text)
        assert np.array_equal(load_graph(text).adjacency, g.adjacency)
        again = doc + [[u, v, 2.0] for u, v, _ in doc]
        assert_loads_like_the_loop(json.dumps({"n": g.n, "edges": [again[i] for i in rng.permutation(len(again))]}))
