"""Cartesian powers and the occupation-label algebra.

A vertex of a k-fold Cartesian power is a k-tuple of single-particle sites.
Tuples map to flat indices in row-major mixed radix, first entry most
significant, which is exactly the order the Kronecker-sum construction
produces: index(x) = sum_i (x_i - 1) * n**(k - i) with 1-based sites.
``cartesian_power`` builds the power from stored entries, never densely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSizeError, NonFiniteWeightError
from .graph_core import WeightedGraph, _check_cap, _loops


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


def _digits(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """Mixed-radix digits (0-based sites) of flat power indices, shape (len, k).

    Inverts ``OccupationLabel.index`` on every index of the n**k power.
    """
    rem = np.array(indices)
    out = np.empty((rem.size, k), dtype=rem.dtype)
    for pos in range(k - 1, -1, -1):
        out[:, pos] = rem % n
        rem //= n
    return out


def cartesian_power(g: WeightedGraph, k: int) -> WeightedGraph:
    """k-fold Cartesian power of a graph, labels ordered mixed-radix row-major.

    Built from the stored entries in the order the Kronecker sums
    ``A_j (x) I + I (x) A`` append each coordinate as least significant, with
    self-loops added first coordinate first, so the arrays equal the dense sums'.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidSizeError(f"cartesian_power needs k >= 1, got {k!r}")
    size = g.n**k
    _check_cap(size, f"power would have {size} vertices")
    upper = g._rows < g._cols
    u, v, w = g._rows[upper], g._cols[upper], g._weights[upper]
    loops = diagonal = _loops(g)
    for step in range(1, k):
        # Every edge so far once per new site, then every edge of g once per old label.
        old = np.arange(g.n**step)[:, None] * g.n
        u = np.concatenate([(u[:, None] * g.n + np.arange(g.n)).ravel(), (old + g._rows[upper]).ravel()])
        v = np.concatenate([(v[:, None] * g.n + np.arange(g.n)).ravel(), (old + g._cols[upper]).ravel()])
        w = np.concatenate([np.repeat(w, g.n), np.tile(g._weights[upper], old.size)])
        diagonal = np.add.outer(diagonal, loops).ravel()
    if not np.isfinite(diagonal).all():  # only summed self-loops can overflow
        raise NonFiniteWeightError("adjacency entries must be finite")
    every = np.arange(size)
    return WeightedGraph._from_slots(size, *map(np.concatenate, ((u, every), (v, every), (w, diagonal))))
