"""Cartesian powers and the occupation-label algebra.

A vertex of a k-fold Cartesian power is a k-tuple of single-particle sites.
Tuples map to flat indices in row-major mixed radix, first entry most
significant, which is exactly the order the Kronecker-sum construction
produces: index(x) = sum_i (x_i - 1) * n**(k - i) with 1-based sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSizeError, ResourceCapError
from .graph_core import WeightedGraph, resolve_size_cap


@dataclass(frozen=True)
class OccupationLabel:
    """Sites occupied by k walkers on an n-vertex graph, as a 1-based tuple."""

    sites: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSizeError(f"label needs n >= 1, got {self.n!r}")
        sites = tuple(int(x) for x in self.sites)
        if len(sites) < 1:
            raise InvalidSizeError("label needs at least one site")
        for x in sites:
            if not 1 <= x <= self.n:
                raise InvalidSizeError(f"site {x} outside 1..{self.n}")
        object.__setattr__(self, "sites", sites)

    @property
    def k(self) -> int:
        return len(self.sites)

    @property
    def index(self) -> int:
        """Row-major flat index of this label, 0-based."""
        value = 0
        for x in self.sites:
            value = value * self.n + (x - 1)
        return value

    def has_repeat(self) -> bool:
        return len(set(self.sites)) < len(self.sites)

    def is_ascending(self) -> bool:
        return all(a < b for a, b in zip(self.sites, self.sites[1:]))


def _digits(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """Mixed-radix digits (0-based sites) of flat power indices, shape (len, k).

    Inverts ``OccupationLabel.index``; an object array of ints decodes exactly past int64.
    """
    rem = np.array(indices)
    out = np.empty((rem.size, k), dtype=rem.dtype)
    for pos in range(k - 1, -1, -1):
        out[:, pos] = rem % n
        rem //= n
    return out


def label_of_index(i: int, n: int, k: int) -> OccupationLabel:
    """Inverse of ``OccupationLabel.index`` for k walkers on n sites."""
    if not isinstance(k, int) or k < 1:
        raise InvalidSizeError(f"need k >= 1, got {k!r}")
    if not isinstance(n, int) or n < 1:
        raise InvalidSizeError(f"need n >= 1, got {n!r}")
    size = n**k
    if not isinstance(i, int) or not 0 <= i < size:
        raise InvalidSizeError(f"index {i!r} outside 0..{size - 1}")
    return OccupationLabel(tuple(_digits(np.array([i], dtype=object), n, k)[0] + 1), n)


def cartesian_power(g: WeightedGraph, k: int, cap: int | None = None) -> WeightedGraph:
    """k-fold Cartesian power of a graph, labels ordered mixed-radix row-major."""
    if not isinstance(k, int) or k < 1:
        raise InvalidSizeError(f"cartesian_power needs k >= 1, got {k!r}")
    size = g.n**k
    limit = resolve_size_cap(cap)
    if size > limit:
        raise ResourceCapError(f"power would have {size} vertices, cap is {limit}")
    a = g.adjacency
    for step in range(1, k):
        # Appending the new coordinate as least significant keeps earlier
        # entries most significant, matching OccupationLabel.index.
        m = g.n**step
        a = np.kron(a, np.eye(g.n)) + np.kron(np.eye(m), g.adjacency)
    return WeightedGraph(size, a)
