"""Hard-core walkers on Cartesian powers: collision deletion and its algebra.

Deleting every multiply-occupied label from the k-fold power of a path
splits the survivor graph into k! isomorphic components, one per ordering of
the walkers. The component whose labels are strictly ascending is the
canonical one; restricting to it is the same thing as building the
symmetric power directly on ascending labels. The signed diagonal that
records each component's label-sorting parity commutes with the deleted
adjacency and is what turns free-fermion eigenvectors into hard-core-boson
ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSizeError,
    InvariantViolationError,
    PreconditionError,
    ResourceCapError,
)
from .graph_core import WeightedGraph, resolve_size_cap
from .partition import Partition, orbit_partition
from .products import OccupationLabel

# Entries at or below this magnitude do not count as edges when walking
# components.
_EDGE_THRESHOLD = 1e-14

_ISOMORPHISM_TOL = 1e-12


def _digits(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """Mixed-radix digits (0-based sites) of flat power indices, shape (len, k)."""
    out = np.empty((indices.size, k), dtype=np.int64)
    rem = np.array(indices, dtype=np.int64)
    for pos in range(k - 1, -1, -1):
        out[:, pos] = rem % n
        rem //= n
    return out


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
        digits = _digits(self.kept_indices(), self.n, self.k) + 1
        return tuple(tuple(int(x) for x in row) for row in digits)


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
    digits = _digits(np.arange(size), n, k)
    ordered = np.sort(digits, axis=1)
    repeat = (np.diff(ordered, axis=1) == 0).any(axis=1) if k > 1 else np.zeros(size, dtype=bool)
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


@dataclass(frozen=True, eq=False)
class ComponentDecomposition:
    """Connected components of a deleted power graph, canonical component first.

    ``components`` holds 0-based kept-vertex indices in ascending order;
    ``component_of`` maps each kept vertex to its component position;
    ``labels`` carries the 1-based site tuple of every kept vertex. The
    canonical component is the one containing the strictly ascending label
    (1, 2, ..., k), and ``canonical`` is its position (always 0 here).
    """

    n: int
    k: int
    component_of: np.ndarray
    components: tuple[np.ndarray, ...]
    labels: tuple[tuple[int, ...], ...]
    canonical: int

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
    mask = deletion_mask(n, k)
    if g_hc.n != mask.kept_count:
        raise PreconditionError(
            f"graph has {g_hc.n} vertices but the (n={n}, k={k}) deletion keeps {mask.kept_count}"
        )
    labels = mask.kept_labels()
    adjacency = np.abs(g_hc.adjacency) > _EDGE_THRESHOLD
    seen = np.zeros(g_hc.n, dtype=bool)
    raw: list[list[int]] = []
    for start in range(g_hc.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for v in np.flatnonzero(adjacency[u]):
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        raw.append(sorted(members))
    expected_count = math.factorial(k)
    expected_size = math.comb(n, k)
    if len(raw) != expected_count:
        raise InvariantViolationError(
            f"expected {expected_count} components for k={k}, found {len(raw)}; "
            "the underlying single-particle graph is not in the path family"
        )
    sizes = sorted(len(c) for c in raw)
    if sizes != [expected_size] * expected_count:
        raise InvariantViolationError(
            f"expected every component to have {expected_size} vertices, got sizes {sizes}"
        )
    ascending = tuple(range(1, k + 1))
    home = labels.index(ascending)
    canonical_pos = next(ci for ci, members in enumerate(raw) if home in members)
    ordered = [raw[canonical_pos]] + [c for i, c in enumerate(raw) if i != canonical_pos]
    component_of = np.empty(g_hc.n, dtype=np.int64)
    for ci, members in enumerate(ordered):
        component_of[members] = ci
    return ComponentDecomposition(
        n=n,
        k=k,
        component_of=component_of,
        components=tuple(np.array(c) for c in ordered),
        labels=labels,
        canonical=0,
    )


def component_isomorphism_check(decomp: ComponentDecomposition, g_hc: WeightedGraph) -> float:
    """Max adjacency deviation of every component from the canonical one under label sorting.

    The isomorphism sends a vertex to the kept vertex whose label is its
    sorted label; for path-family inputs this is exact, so the return value
    measures roundoff only.
    """
    a = g_hc.adjacency
    lookup = {lab: i for i, lab in enumerate(decomp.labels)}
    canonical = decomp.components[0]
    canon_pos = {int(v): pos for pos, v in enumerate(canonical)}
    canon_sub = a[np.ix_(canonical, canonical)]
    worst = 0.0
    for comp in decomp.components:
        target = np.empty(comp.size, dtype=np.int64)
        for pos, v in enumerate(comp):
            sorted_label = tuple(sorted(decomp.labels[int(v)]))
            target[pos] = canon_pos[lookup[sorted_label]]
        sub = a[np.ix_(comp, comp)]
        dev = float(np.abs(sub - canon_sub[np.ix_(target, target)]).max())
        worst = max(worst, dev)
    return worst


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


def _sorting_parity(seq: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )
    return -1 if inversions % 2 else 1


def unit_antisymmetry(decomp: ComponentDecomposition) -> SignedDiagonal:
    """Signs sigma(p_a) of the label-sorting permutation, constant per component.

    Squaring the diagonal gives the identity, and it commutes with the
    deleted adjacency because hops never reorder the walkers.
    """
    signs = np.empty(decomp.component_of.size)
    per_component = []
    for comp in decomp.components:
        sign = _sorting_parity(decomp.labels[int(comp[0])])
        per_component.append(sign)
        signs[comp] = float(sign)
    return SignedDiagonal(signs, tuple(per_component))


def commutator_check_antisymmetry(g_hc: WeightedGraph, signed: SignedDiagonal) -> float:
    """Max entry of [A, S] where S is the signed diagonal; zero for path-family inputs."""
    if signed.signs.size != g_hc.n:
        raise PreconditionError("sign vector length does not match the graph")
    s = signed.signs
    return float(np.abs(g_hc.adjacency * (s[None, :] - s[:, None])).max())


def indistinguishability_partition(mask: DeletionMask | None, n: int, k: int) -> Partition:
    """Group labels that agree as multisets, cells ordered by smallest member.

    With a mask the partition lives on the kept vertices (every cell has k!
    members, the orderings of one ascending label). With ``mask=None`` it
    lives on all n**k power labels, where cells of labels with repeats are
    smaller.
    """
    if mask is not None:
        if (mask.n, mask.k) != (n, k):
            raise PreconditionError("mask was built for different (n, k)")
        labels = mask.kept_labels()
    else:
        size = n**k
        digits = _digits(np.arange(size), n, k) + 1
        labels = tuple(tuple(int(x) for x in row) for row in digits)
    groups: dict[tuple[int, ...], list[int]] = {}
    for vid, lab in enumerate(labels, start=1):
        groups.setdefault(tuple(sorted(lab)), []).append(vid)
    cells = sorted((tuple(members) for members in groups.values()), key=lambda c: c[0])
    return Partition(len(labels), tuple(cells))


def _is_line_path(g: WeightedGraph) -> bool:
    """True when the graph is a loop-free path laid out along vertex order."""
    if g.n < 2:
        return False
    a = g.adjacency
    if np.count_nonzero(a) != 2 * (g.n - 1):
        return False
    super_diag = np.diagonal(a, offset=1)
    return bool(np.all(super_diag != 0.0))


def ascending_labels(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The C(n, k) strictly ascending k-subsets of the sites 1..n, lexicographic order.

    This is the vertex order of every identical-walker graph in the package.
    """
    return tuple(itertools.combinations(range(1, n + 1), k))


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
    # 0-based site tuples, so the loop below indexes the adjacency directly.
    combos = [tuple(x - 1 for x in label) for label in ascending_labels(g.n, k)]
    position = {c: i for i, c in enumerate(combos)}
    a = g.adjacency
    out = np.zeros((m, m))
    for i, occupied in enumerate(combos):
        occupied_set = set(occupied)
        loop = float(a[list(occupied), list(occupied)].sum())
        if loop != 0.0:
            out[i, i] = loop
        for site in occupied:
            for neighbor in np.flatnonzero(a[site]):
                neighbor = int(neighbor)
                if neighbor == site or neighbor in occupied_set:
                    continue
                moved = tuple(sorted(occupied_set - {site} | {neighbor}))
                out[i, position[moved]] = a[site, neighbor]
    return WeightedGraph(m, out)


def c_operator(label: OccupationLabel) -> OccupationLabel:
    """Mirror map: reverse the tuple and replace every site x by n + 1 - x.

    An involution that sends strictly ascending labels to strictly ascending
    labels; on a mirror-symmetric path it induces an automorphism of the
    hard-core graphs.
    """
    mirrored = tuple(label.n + 1 - x for x in reversed(label.sites))
    return OccupationLabel(mirrored, label.n)


def _mirror_permutation(
    n: int, k: int, labels: tuple[tuple[int, ...], ...] | None = None
) -> np.ndarray:
    """0-based index map of the mirror map on a label list.

    ``labels`` defaults to the ascending labels of (n, k). Raises
    PreconditionError when the image of a label is not in the list.
    """
    if labels is None:
        labels = ascending_labels(n, k)
    position = {lab: i for i, lab in enumerate(labels)}
    perm = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        image = c_operator(OccupationLabel(lab, n)).sites
        if image not in position:
            raise PreconditionError(f"mirror image of {lab} leaves the label set")
        perm[i] = position[image]
    return perm


def mirror_partition(
    g: WeightedGraph,
    n: int,
    k: int,
    labels: tuple[tuple[int, ...], ...] | None = None,
) -> Partition:
    """Orbit partition of the mirror map on a hard-core graph.

    By default ``g`` is the symmetric power on ascending labels, so the
    label list is implied. Passing ``labels`` explicitly supports the
    distinguishable case one component at a time. Cells have size 1 or 2
    because the mirror is an involution; the map must permute the label set
    and be an automorphism of ``g``.
    """
    if labels is None:
        if g.n != math.comb(n, k):
            raise PreconditionError(
                f"graph has {g.n} vertices, expected C({n},{k}) = {math.comb(n, k)} ascending labels"
            )
    elif len(labels) != g.n:
        raise PreconditionError("label list length does not match the graph")
    return orbit_partition(g, _mirror_permutation(n, k, labels))
