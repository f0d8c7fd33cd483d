"""Hard-core walkers on Cartesian powers: collision deletion and its algebra.

Deleting every multiply-occupied label from the k-fold power of a path
splits the survivor graph into k! isomorphic components, one per ordering of
the walkers. The component whose labels are strictly ascending is the
canonical one; restricting to it is the same thing as building the
symmetric power directly on ascending labels. The signed diagonal that
records each component's label-sorting parity commutes with the deleted
adjacency and is what turns free-fermion eigenvectors into hard-core-boson
ones.

In both graphs an edge is one walker hopping to a free site, so both are
read from one list of hops over their own labels, never from the n**k
power, which ``cartesian_power``, ``apply_deletion`` and the ``DeletionMask``
keep as the paper's reference construction. The symmetric power is built as
an edge list; the deleted graph, on the n!/(n-k)! labels of ``_kept_table``,
only has its components found (``_kept_components``). No builder reads a
dense array.

Both label families have closed-form lexicographic ranks, so a hop finds its
target row, and a sorted kept label its ascending rank, with no sort or
search: ascending labels by the combinatorial number system
(``_rank_ascending``), k-permutations by their Lehmer code
(``_rank_permutation``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSizeError,
    InvariantViolationError,
    PreconditionError,
)
from .graph_core import WeightedGraph, _check_cap, _components, _loops
from .partition import Partition, _slot_deviation, orbit_partition
from .products import OccupationLabel, _digits

# Entries at or below this magnitude do not count as edges when walking
# components.
_EDGE_THRESHOLD = 1e-14


def _refuse_flagged(sites: np.ndarray, bad: np.ndarray, family: str) -> None:
    """PreconditionError naming the first label, a column of ``sites``, that ``bad`` flags."""
    if bad.any():
        raise PreconditionError(f"label {sites[:, np.argmax(bad)].tolist()} is not {family}")


def _rank_ascending(labels: np.ndarray, n: int) -> np.ndarray:
    """Row of each strictly ascending label of ``labels`` in ``_ascending(n, k)``.

    The combinatorial number system, read on the mirrored sites: rank
    ``C(n, k) - 1 - sum_i C(n - 1 - a_i, k - i)`` over the slots i = 0..k-1.
    A label that does not ascend strictly or has a site outside 0..n-1
    raises PreconditionError.
    """
    # One contiguous row per slot: the loops below read whole slots.
    sites = np.asarray(labels, dtype=np.int64).T.copy()
    k = sites.shape[0]
    bad = (sites[0] < 0) | (sites[-1] >= n)
    for low, high in zip(sites[:-1], sites[1:]):
        bad |= high <= low
    _refuse_flagged(sites, bad, f"an ascending label of range({n})")
    rank = np.full(sites.shape[1], math.comb(n, k) - 1)
    for i, site in enumerate(sites):
        # Slot i holds a site a >= i, where C(n - 1 - a, k - i) <= C(n, k) cannot overflow.
        rank -= np.array([0] * i + [math.comb(n - 1 - a, k - i) for a in range(i, n)])[site]
    return rank


def _rank_permutation(labels: np.ndarray, n: int) -> np.ndarray:
    """Row of each k-permutation of ``labels`` in ``_kept_table(n, k)``.

    The Lehmer code: rank ``sum_i c_i P(n - 1 - i, k - 1 - i)``, where the
    digit c_i counts the sites below a_i that no earlier slot holds. A label
    with a repeated site or a site outside 0..n-1 raises PreconditionError.
    """
    sites = np.asarray(labels, dtype=np.int64).T.copy()
    k = sites.shape[0]
    bad = np.zeros(sites.shape[1], dtype=bool)
    rank = np.zeros(sites.shape[1], dtype=np.int64)
    for i, site in enumerate(sites):
        bad |= (site < 0) | (site >= n)
        digit = site.copy()
        for earlier in sites[:i]:
            bad |= earlier == site
            digit -= earlier < site
        rank += digit * math.perm(n - 1 - i, k - 1 - i)
    _refuse_flagged(sites, bad, f"a k-permutation of range({n})")
    return rank


def _first_rows(rank: np.ndarray, count: int) -> np.ndarray:
    """First index of ``rank`` holding each value of range(count), ``rank.size`` for a value it lacks."""
    first = np.full(count, rank.size)
    np.minimum.at(first, rank, np.arange(rank.size))
    return first


def _hops(g: WeightedGraph, table: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every hop of one walker to a free higher site, over the stored entries of ``g`` above the diagonal.

    ``table`` lists labels with distinct 0-based sites, one per row. Yields,
    a block of rows at a time, the row each hop leaves, the label it reaches
    (the walker keeps its slot) and its weight ``A[site, target]``; blocks
    keep the temporaries near 2**22 entries. Each edge is thus read once, from
    its lower end; self-loops are not hops.
    """
    upper = g._rows < g._cols
    cols, weights = g._cols[upper], g._weights[upper]
    start = np.searchsorted(g._rows[upper], np.arange(g.n + 1))
    degree = np.diff(start)
    k = table.shape[1]
    step = max(1, 2**22 // (k * k * max(1, int(degree.max()))))
    for first in range(0, table.shape[0], step):
        block = table[first : first + step]
        # One candidate per (row, slot, stored entry leaving the slot's site upward).
        count = degree[block].ravel()
        row, slot = np.divmod(np.repeat(np.arange(block.size), count), k)
        entry = np.arange(row.size) + np.repeat(start[block].ravel() - (np.cumsum(count) - count), count)
        target = cols[entry]
        free = np.ones(row.size, dtype=bool)
        for site in block.T:
            free &= site[row] != target
        row, slot, target, entry = row[free], slot[free], target[free], entry[free]
        moved = block[row]
        moved[np.arange(row.size), slot] = target
        yield first + row, moved, weights[entry]


@dataclass(frozen=True, eq=False)
class DeletionMask:
    """Boolean keep-flags over the n**k power labels (True = no repeated site)."""

    n: int
    k: int
    keep: np.ndarray

    def __post_init__(self) -> None:
        keep = np.array(self.keep, dtype=bool)
        if keep.shape != (self.n**self.k,):
            raise PreconditionError("mask length does not match n**k")
        keep.flags.writeable = False
        object.__setattr__(self, "keep", keep)

    def kept_indices(self) -> np.ndarray:
        return np.flatnonzero(self.keep)


def deletion_mask(n: int, k: int) -> DeletionMask:
    """Mask keeping exactly the collision-free labels; kept count is n!/(n-k)!."""
    if not isinstance(n, int) or n < 1:
        raise InvalidSizeError(f"deletion_mask needs n >= 1, got {n!r}")
    if not isinstance(k, int) or k < 1:
        raise InvalidSizeError(f"deletion_mask needs k >= 1, got {k!r}")
    size = n**k
    _check_cap(size, f"power has {size} labels")
    ordered = np.sort(_digits(np.arange(size), n, k), axis=1)
    repeat = (np.diff(ordered, axis=1) == 0).any(axis=1)
    return DeletionMask(n, k, ~repeat)


def apply_deletion(g_power: WeightedGraph, mask: DeletionMask) -> WeightedGraph:
    """Restrict a power graph to the kept labels, preserving their order."""
    if g_power.n != mask.keep.size:
        raise PreconditionError(
            f"graph has {g_power.n} vertices but mask covers {mask.keep.size} labels"
        )
    idx = mask.kept_indices()
    if not idx.size:
        raise InvalidSizeError("vertex count must be a positive integer, got 0")
    # Kept vertices keep their order, so the stored entries between them,
    # renumbered, are the nonzeros of the kept submatrix.
    position = np.full(g_power.n, -1)
    position[idx] = np.arange(idx.size)
    rows, cols = position[g_power._rows], position[g_power._cols]
    inner = (rows >= 0) & (rows <= cols)
    return WeightedGraph._from_slots(idx.size, rows[inner], cols[inner], g_power._weights[inner])


def _kept_table(n: int, k: int) -> np.ndarray:
    """Kept labels of ``deletion_mask(n, k)`` as 0-based sites: the k-permutations of range(n), lexicographic.

    The size cap bounds their n!/(n-k)! count; needs 1 <= k <= n. Slot by
    slot, every row is followed by each site it does not hold, ascending,
    which keeps lexicographic order with no Python loop over labels.
    """
    size = math.perm(n, k)
    _check_cap(size, f"deleted power has {size} kept labels")
    table = np.zeros((1, 0), dtype=np.int64)
    for _ in range(k):
        free = np.ones((table.shape[0], n), dtype=bool)
        free[np.arange(table.shape[0])[:, None], table] = False
        row, site = np.nonzero(free)
        table = np.column_stack([table[row], site])
    return table


@dataclass(frozen=True, eq=False)
class ComponentDecomposition:
    """Connected components of a deleted power graph, canonical component first.

    ``components`` holds 0-based kept-vertex indices in ascending order;
    ``component_of`` maps each kept vertex to its component position;
    ``labels`` holds the 1-based sites of every kept vertex, one read-only
    int64 row each. The first component is the canonical one, containing
    the strictly ascending label (1, 2, ..., k).
    """

    n: int
    k: int
    component_of: np.ndarray
    components: tuple[np.ndarray, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        comp_of = np.array(self.component_of, dtype=np.int64)
        comp_of.flags.writeable = False
        object.__setattr__(self, "component_of", comp_of)
        comps = tuple(np.array(c, dtype=np.int64) for c in self.components)
        for c in comps:
            c.flags.writeable = False
        object.__setattr__(self, "components", comps)
        labels = np.array(self.labels, dtype=np.int64)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)


def _decomposition(component_of: np.ndarray, table: np.ndarray, n: int) -> ComponentDecomposition:
    """The decomposition that ``component_of`` numbers on ``table = _kept_table(n, k)``.

    Raises InvariantViolationError unless there are k! components of C(n, k) labels each.
    """
    k = table.shape[1]
    sizes = np.bincount(component_of)
    expected_count = math.factorial(k)
    expected_size = math.comb(n, k)
    if sizes.size != expected_count:
        raise InvariantViolationError(
            f"expected {expected_count} components for k={k}, found {sizes.size}; "
            "the underlying single-particle graph is not in the path family"
        )
    if (sizes != expected_size).any():
        raise InvariantViolationError(
            f"expected every component to have {expected_size} vertices, got sizes {sorted(sizes.tolist())}"
        )
    # The label (1, ..., k) comes first; move its component to position 0, keeping the others in order.
    home = component_of[0]
    component_of = np.where(component_of == home, 0, component_of + (component_of < home))
    members = np.argsort(component_of, kind="stable")
    return ComponentDecomposition(
        n=n,
        k=k,
        component_of=component_of,
        components=tuple(np.split(members, np.arange(1, expected_count) * expected_size)),
        labels=table + 1,
    )


def decompose_components(g_hc: WeightedGraph, n: int, k: int) -> ComponentDecomposition:
    """Split a deleted power graph into components and validate their structure.

    Expects the restriction of the k-fold power of an n-vertex path-family
    graph: exactly k! components, each of size C(n, k). Anything else raises
    InvariantViolationError. Components appear canonical first, the rest
    ordered by their smallest kept index.
    """
    kept_count = math.perm(n, k)
    if g_hc.n != kept_count:
        raise PreconditionError(
            f"graph has {g_hc.n} vertices but the (n={n}, k={k}) deletion keeps {kept_count}"
        )
    edge = np.abs(g_hc._weights) > _EDGE_THRESHOLD
    return _decomposition(_components(g_hc.n, g_hc._rows[edge], g_hc._cols[edge]), _kept_table(n, k), n)


def _kept_components(g: WeightedGraph, table: np.ndarray) -> ComponentDecomposition:
    """``decompose_components`` of the deleted k-fold power of ``g`` on ``table = _kept_table(g.n, k)``.

    The components come from the hops of ``g`` between kept labels (each
    keeps its walker's slot), that power's edges, with no graph built.
    """
    rows, cols = [], []
    for row, moved, weight in _hops(g, table):
        edge = np.abs(weight) > _EDGE_THRESHOLD
        rows.append(row[edge])
        cols.append(_rank_permutation(moved[edge], g.n))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # _components reads every edge in both directions.
    component_of = _components(table.shape[0], np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    return _decomposition(component_of, table, g.n)


def component_isomorphism_check(decomp: ComponentDecomposition, g_hc: WeightedGraph) -> float:
    """Max adjacency deviation of every component from the canonical one under label sorting.

    The isomorphism sends a vertex to the kept vertex whose label is its
    sorted label; for path-family inputs this is exact, so the return value
    measures roundoff only. A sorted label outside the canonical component
    (a path not laid out along vertex order) raises PreconditionError, and so
    does a component that label sorting does not map one to one onto it.
    Only the stored edges are read: every component's edges, moved to the
    canonical positions of their sorted labels, are matched against the
    canonical component's edges, an edge missing on one side counting as 0.
    """
    canonical = decomp.components[0]
    size = canonical.size
    labels = decomp.labels - 1
    ascending = np.sort(labels, axis=1)
    rank = _rank_ascending(ascending, decomp.n)
    # Position of each vertex's sorted label inside the canonical component:
    # the first canonical vertex holding it, which must ascend. Canonical
    # vertices that do not ascend go to a rank m past the ascending ones.
    holds = (ascending[canonical] == labels[canonical]).all(axis=1)
    m = math.comb(decomp.n, decomp.k)
    target = _first_rows(np.where(holds, rank[canonical], m), m + 1)[rank]
    absent = target == size
    if absent.any():
        raise PreconditionError(f"label {(ascending[np.argmax(absent)] + 1).tolist()} is not in the label table")
    comp_of = np.full(g_hc.n, -1)
    for c, comp in enumerate(decomp.components):
        if (np.bincount(target[comp], minlength=size) != 1).any():
            raise PreconditionError(f"component {c} is not a relabeling of the canonical component")
        comp_of[comp] = c
    # Keys (component, row, col) of the edges inside one component, rows and
    # columns moved to the positions of their sorted labels. The check above
    # leaves only ascending labels in the canonical component, where target is
    # the identity, so its keys are the canonical edges; each component is
    # matched against a copy of them.
    owner = comp_of[g_hc._rows]
    inner = (owner == comp_of[g_hc._cols]) & (owner >= 0)
    rows, cols, weights, owner = g_hc._rows[inner], g_hc._cols[inner], g_hc._weights[inner], owner[inner]
    moved = (owner * size + target[rows]) * size + target[cols]
    home = owner == 0
    count = len(decomp.components)
    expected = (np.arange(count)[:, None] * size**2 + moved[home]).ravel()
    return _slot_deviation(moved, weights, expected, np.tile(weights[home], count))


@dataclass(frozen=True, eq=False)
class SignedDiagonal:
    """Diagonal of +-1 signs over kept vertices, one shared sign per component."""

    signs: np.ndarray
    component_signs: tuple[int, ...]

    def __post_init__(self) -> None:
        signs = np.array(self.signs, dtype=float)
        if not np.all(np.abs(signs) == 1.0):
            raise PreconditionError("signs must be +-1")
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)


def unit_antisymmetry(decomp: ComponentDecomposition) -> SignedDiagonal:
    """Signs sigma(p_a) of the label-sorting permutation, constant per component.

    Squaring the diagonal gives the identity, and it commutes with the
    deleted adjacency because hops never reorder the walkers.
    """
    firsts = decomp.labels[[comp[0] for comp in decomp.components]]
    per_component = _sort_signs(firsts)
    return SignedDiagonal(per_component[decomp.component_of], tuple(per_component.tolist()))


def commutator_check_antisymmetry(g_hc: WeightedGraph, signed: SignedDiagonal) -> float:
    """Max entry of [A, S] where S is the signed diagonal; zero for path-family inputs."""
    if signed.signs.size != g_hc.n:
        raise PreconditionError("sign vector length does not match the graph")
    s = signed.signs
    return float(np.abs(g_hc._weights * (s[g_hc._cols] - s[g_hc._rows])).max(initial=0.0))


def indistinguishability_partition(mask: DeletionMask, n: int, k: int) -> Partition:
    """Group the kept labels that agree as multisets, cells ordered by smallest member.

    The partition lives on the kept vertices: every cell has k! members, the
    orderings of one ascending label. A mask that keeps a label with a
    repeated site, which ``deletion_mask`` never does, raises
    PreconditionError.
    """
    if (mask.n, mask.k) != (n, k):
        raise PreconditionError("mask was built for different (n, k)")
    indices = mask.kept_indices()
    rank = _rank_ascending(np.sort(_digits(indices, n, k), axis=1), n)
    # Each vertex's cell is named by its smallest member, the first vertex with its sorted label.
    first = _first_rows(rank, math.comb(n, k))[rank]
    order = np.argsort(first, kind="stable")
    cells = np.split(order + 1, np.flatnonzero(np.diff(first[order])) + 1)
    return Partition(indices.size, tuple(tuple(cell.tolist()) for cell in cells))


def _sort_signs(labels: np.ndarray) -> np.ndarray:
    """Sign (+1 or -1) of the permutation that sorts each row of ``labels`` (distinct entries)."""
    # Inversions: slot pairs i < j whose sites are out of order.
    inversions = np.triu(labels[:, :, None] > labels[:, None, :]).sum(axis=(1, 2))
    return 1 - 2 * (inversions % 2)


def _ascending(n: int, k: int) -> np.ndarray:
    """``ascending_labels(n, k)`` as 0-based sites, shape (C(n, k), k)."""
    return np.array(list(itertools.combinations(range(n), k)), dtype=np.int64).reshape(math.comb(n, k), k)


def ascending_labels(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The C(n, k) strictly ascending k-subsets of the sites 1..n, lexicographic order.

    This is the vertex order of every identical-walker graph in the package.
    """
    return tuple(map(tuple, (_ascending(n, k) + 1).tolist()))


def _power_size(n: int, k: int) -> int:
    """C(n, k), the vertex count of ``symmetric_power`` on n vertices, once k and the size cap admit it."""
    if not isinstance(k, int) or not 1 <= k <= n:
        raise InvalidSizeError(f"symmetric_power needs 1 <= k <= {n}, got {k!r}")
    m = math.comb(n, k)
    _check_cap(m, f"symmetric power has {m} vertices")
    return m


def symmetric_power(g: WeightedGraph, k: int) -> WeightedGraph:
    """Hard-core adjacency on ascending k-subsets of the vertex set: the symmetric power of any graph.

    Vertices are the C(n, k) strictly ascending labels in lexicographic
    order; moving one walker from site a to an unoccupied adjacent site b
    contributes weight A[a, b], and a label's self-loop is the sum of its
    sites' loops. For a path along vertex order the result equals the
    canonical component of the deleted power, the equivalence that
    ``decompose_components`` and ``component_isomorphism_check`` check; on
    other graphs it may fail.
    """
    _power_size(g.n, k)
    table = _ascending(g.n, k)
    # A hop to a higher site reaches the later row of its sorted label: the upper slot of its edge.
    every = np.arange(table.shape[0])
    rows, cols, weights = [every], [every], [_loops(g)[table].sum(axis=1)]
    for row, moved, weight in _hops(g, table):
        rows.append(row)
        cols.append(_rank_ascending(np.sort(moved, axis=1), g.n))
        weights.append(weight)
    return WeightedGraph._from_slots(table.shape[0], *map(np.concatenate, (rows, cols, weights)))


def c_operator(label: OccupationLabel) -> OccupationLabel:
    """Mirror map: reverse the tuple and replace every site x by n + 1 - x.

    An involution that sends strictly ascending labels to strictly ascending
    labels; on a mirror-symmetric path it induces an automorphism of the
    hard-core graphs.
    """
    mirrored = tuple(label.n + 1 - x for x in reversed(label.sites))
    return OccupationLabel(mirrored, label.n)


def _mirror_permutation(n: int, k: int) -> np.ndarray:
    """0-based index map of the mirror map on the ascending labels of (n, k)."""
    return _rank_ascending(n - 1 - _ascending(n, k)[:, ::-1], n)


def mirror_partition(g: WeightedGraph, n: int, k: int) -> Partition:
    """Orbit partition of the mirror map on the symmetric power ``g`` on ascending labels.

    Cells have size 1 or 2 because the mirror is an involution; the map must
    be an automorphism of ``g``.
    """
    if g.n != math.comb(n, k):
        raise PreconditionError(
            f"graph has {g.n} vertices, expected C({n},{k}) = {math.comb(n, k)} ascending labels"
        )
    return orbit_partition(g, _mirror_permutation(n, k))
