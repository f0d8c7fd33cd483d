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
built as edge lists from one list of hops over their own labels, never as a
dense array and never from the n**k power, which ``cartesian_power``,
``apply_deletion`` and the ``DeletionMask`` keep as the paper's reference
construction. The deleted graph lives on ``_kept_table``, its n!/(n-k)! labels.
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
    ResourceCapError,
)
from .graph_core import WeightedGraph, resolve_size_cap
from .partition import Partition, _components, orbit_partition
from .products import OccupationLabel, _digits

# Entries at or below this magnitude do not count as edges when walking
# components.
_EDGE_THRESHOLD = 1e-14

_ISOMORPHISM_TOL = 1e-12


def _label_rows(table: np.ndarray, labels: np.ndarray) -> np.ndarray:
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


def _hops(a: np.ndarray, table: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every hop of one walker to a free site, over the nonzeros of ``a``.

    ``table`` lists labels with distinct 0-based sites, one per row. Yields,
    a block of rows at a time, the row each hop leaves, the label it reaches
    (the walker keeps its slot) and its weight ``a[site, target]``; blocks
    keep the temporaries near 2**22 entries. Self-loops are not hops.
    """
    step = max(1, 2**22 // (table.shape[1] ** 2 * a.shape[0]))
    for start in range(0, table.shape[0], step):
        block = table[start : start + step]
        free = np.ones((block.shape[0], a.shape[0]), dtype=bool)
        free[np.arange(block.shape[0])[:, None], block] = False
        # a[block][r, i, b] is the weight for the walker in slot i of row r to reach site b.
        row, slot, target = np.nonzero((a[block] != 0.0) & free[:, None, :])
        moved = block[row]
        moved[np.arange(row.size), slot] = target
        yield start + row, moved, a[block[row, slot], target]


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

    @property
    def kept_count(self) -> int:
        return int(self.keep.sum())

    def kept_indices(self) -> np.ndarray:
        return np.flatnonzero(self.keep)

    def kept_labels(self) -> tuple[tuple[int, ...], ...]:
        """1-based site tuples of the kept vertices, in kept order."""
        return tuple(map(tuple, (_digits(self.kept_indices(), self.n, self.k) + 1).tolist()))


def deletion_mask(n: int, k: int, cap: int | None = None) -> DeletionMask:
    """Mask keeping exactly the collision-free labels; kept count is n!/(n-k)!."""
    if not isinstance(n, int) or n < 1:
        raise InvalidSizeError(f"deletion_mask needs n >= 1, got {n!r}")
    if not isinstance(k, int) or k < 1:
        raise InvalidSizeError(f"deletion_mask needs k >= 1, got {k!r}")
    size = n**k
    limit = resolve_size_cap(cap)
    if size > limit:
        raise ResourceCapError(f"power has {size} labels, cap is {limit}")
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
    sub = g_power.adjacency[np.ix_(idx, idx)]
    return WeightedGraph(idx.size, sub)


def _kept_table(n: int, k: int, cap: int | None = None) -> np.ndarray:
    """Kept labels of ``deletion_mask(n, k)`` as 0-based sites: the k-permutations of range(n), lexicographic.

    The size cap bounds their n!/(n-k)! count; needs 1 <= k <= n.
    """
    size = math.perm(n, k)
    limit = resolve_size_cap(cap)
    if size > limit:
        raise ResourceCapError(f"deleted power has {size} kept labels, cap is {limit}")
    sites = itertools.chain.from_iterable(itertools.permutations(range(n), k))
    return np.fromiter(sites, np.int64, size * k).reshape(size, k)


def _kept_graph(g: WeightedGraph, table: np.ndarray) -> WeightedGraph:
    """``apply_deletion(cartesian_power(g, k), deletion_mask(g.n, k))`` on ``table = _kept_table(g.n, k)``.

    Each hop keeps its walker's slot, and the self-loops of the k slots are
    accumulated first slot first, as the Kronecker sum adds them, so the
    result is equal array for array, without the n**k power or any dense array.
    """
    loops = np.add.accumulate(np.diagonal(g.adjacency)[table], axis=1)[:, -1]
    return _hop_graph(g, table, loops, sort=False)


def _hop_graph(g: WeightedGraph, table: np.ndarray, loops: np.ndarray, sort: bool) -> WeightedGraph:
    """Graph on the labels of ``table``: the hops of ``g`` as edges, ``loops`` on the diagonal.

    With ``sort`` a hop reaches the row of its sorted label. Every hop also
    appears from the other end, so only the one with ``row < col`` goes in.
    """
    rows, cols, weights = [np.arange(table.shape[0])], [np.arange(table.shape[0])], [loops]
    for row, moved, weight in _hops(g.adjacency, table):
        col = _label_rows(table, np.sort(moved, axis=1) if sort else moved)
        upper = row < col
        rows.append(row[upper])
        cols.append(col[upper])
        weights.append(weight[upper])
    return WeightedGraph._from_slots(table.shape[0], *map(np.concatenate, (rows, cols, weights)))


@dataclass(frozen=True, eq=False)
class ComponentDecomposition:
    """Connected components of a deleted power graph, canonical component first.

    ``components`` holds 0-based kept-vertex indices in ascending order;
    ``component_of`` maps each kept vertex to its component position;
    ``labels`` carries the 1-based site tuple of every kept vertex. The
    first component is the canonical one, containing the strictly ascending
    label (1, 2, ..., k).
    """

    n: int
    k: int
    component_of: np.ndarray
    components: tuple[np.ndarray, ...]
    labels: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        comp_of = np.array(self.component_of, dtype=np.int64)
        comp_of.flags.writeable = False
        object.__setattr__(self, "component_of", comp_of)
        comps = tuple(np.array(c, dtype=np.int64) for c in self.components)
        for c in comps:
            c.flags.writeable = False
        object.__setattr__(self, "components", comps)


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
    # The collision-free labels in lexicographic order are the kept labels in kept order.
    labels = tuple(itertools.permutations(range(1, n + 1), k))
    edge = np.abs(g_hc._weights) > _EDGE_THRESHOLD
    component_of = _components(g_hc.n, g_hc._rows[edge], g_hc._cols[edge])
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
    return ComponentDecomposition(
        n=n,
        k=k,
        component_of=component_of,
        components=tuple(np.flatnonzero(component_of == c) for c in range(expected_count)),
        labels=labels,
    )


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
    labels = np.array(decomp.labels)
    canonical = decomp.components[0]
    size = canonical.size
    # Position of each vertex's sorted label inside the canonical component.
    target = _label_rows(labels[canonical], np.sort(labels, axis=1))
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
    expected_weights = np.tile(weights[home], count)
    deviations = (
        weights - _values_at(expected, expected_weights, moved),
        _values_at(moved, weights, expected) - expected_weights,
    )
    return max(float(np.abs(d).max(initial=0.0)) for d in deviations)


def _values_at(keys: np.ndarray, values: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """``values`` of the distinct ``keys`` at each of ``wanted``, 0.0 where a key is absent."""
    if not keys.size:
        return np.zeros(wanted.size)
    order = np.argsort(keys)
    at = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), keys.size - 1)]
    return np.where(keys[at] == wanted, values[at], 0.0)


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
    firsts = np.array([decomp.labels[int(comp[0])] for comp in decomp.components])
    per_component = _sort_signs(firsts)
    return SignedDiagonal(per_component[decomp.component_of], tuple(per_component.tolist()))


def commutator_check_antisymmetry(g_hc: WeightedGraph, signed: SignedDiagonal) -> float:
    """Max entry of [A, S] where S is the signed diagonal; zero for path-family inputs."""
    if signed.signs.size != g_hc.n:
        raise PreconditionError("sign vector length does not match the graph")
    s = signed.signs
    return float(np.abs(g_hc._weights * (s[g_hc._cols] - s[g_hc._rows])).max(initial=0.0))


def indistinguishability_partition(mask: DeletionMask | None, n: int, k: int) -> Partition:
    """Group labels that agree as multisets, cells ordered by smallest member.

    With a mask the partition lives on the kept vertices (every cell has k!
    members, the orderings of one ascending label). With ``mask=None`` it
    lives on all n**k power labels, where cells of labels with repeats are
    smaller.
    """
    if mask is not None and (mask.n, mask.k) != (n, k):
        raise PreconditionError("mask was built for different (n, k)")
    indices = np.arange(n**k) if mask is None else mask.kept_indices()
    multisets = np.sort(_digits(indices, n, k), axis=1)
    # Each vertex's cell is named by its smallest member, the first row of its multiset.
    first = _label_rows(multisets, multisets)
    order = np.argsort(first, kind="stable")
    cells = np.split(order + 1, np.flatnonzero(np.diff(first[order])) + 1)
    return Partition(indices.size, tuple(tuple(cell.tolist()) for cell in cells))


def _is_line_path(g: WeightedGraph) -> bool:
    """True for a loop-free path along vertex order: 2(n - 1) stored nonzeros, all with |row - col| = 1."""
    return g.n >= 2 and g._weights.size == 2 * (g.n - 1) and bool(np.all(np.abs(g._rows - g._cols) == 1))


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


def symmetric_power(
    g: WeightedGraph, k: int, allow_non_path: bool = False, cap: int | None = None
) -> WeightedGraph:
    """Hard-core adjacency on ascending k-subsets of the vertex set.

    Vertices are the C(n, k) strictly ascending labels in lexicographic
    order; moving one walker from site a to an unoccupied adjacent site b
    contributes weight A[a, b]. For path-family inputs this equals the
    canonical component of the deleted power. Inputs whose vertices do not
    form a path along vertex order need ``allow_non_path=True``; the result
    is then exploratory and the canonical-component equivalence may fail.
    """
    if not isinstance(k, int) or not 1 <= k <= g.n:
        raise InvalidSizeError(f"symmetric_power needs 1 <= k <= {g.n}, got {k!r}")
    if not allow_non_path and not _is_line_path(g):
        raise PreconditionError(
            "input is not a path along vertex order; pass allow_non_path=True to build anyway"
        )
    m = math.comb(g.n, k)
    limit = resolve_size_cap(cap)
    if m > limit:
        raise ResourceCapError(f"symmetric power has {m} vertices, cap is {limit}")
    table = _ascending(g.n, k)
    loops = np.diagonal(g.adjacency)[table].sum(axis=1)
    return _hop_graph(g, table, loops, sort=True)


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
    table = _ascending(n, k) + 1
    return _label_rows(table, n + 1 - table[:, ::-1])


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
