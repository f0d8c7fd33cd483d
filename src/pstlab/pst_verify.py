"""End-to-end verifiers for hard-core walker transfer on weighted paths.

Every check of one (n, k) case reads one shared context: the identical-walker
graph on ascending labels, its eigenbasis and eigenvalues, the mirror map and
the path propagators at t = pi/2 and t = pi. The eigenbasis is the k-th
compound C_k(Z) of the n-vertex path's eigenvectors, whose columns are the
Slater determinants of its modes (Corollary 1), kept in mode order with the
compound's own signs; a check ties it back to the graph's adjacency. The
mirror quotient of the graph is certified against the even-parity Slater
columns by a residual bound, not diagonalized, so the n-vertex path is the
only eigensolve of a case. Walkers on a path never cross, so U_k(t)[Y, X] =
det U_1(t)[Y, X] (Karlin and McGregor 1959; compound matrices in Horn and
Johnson, Matrix Analysis, 0.8.1): every amplitude a check reads is a k x k
minor of a path propagator. The two n x n path propagators are the only
walks a case assembles; the quotient walk is read off the certified
eigenpairs of the quotient.

Phase bookkeeping: propagators are U(t) = exp(-i t A), and the amplitude
toward the mirror label at t = pi/2 is exactly

    gamma(n, k) = exp(+i pi k (k - n) / 2) = exp(-i pi k (n - k) / 2).

This is the complex conjugate of exp(-i pi k (k - n) / 2), the form that
belongs to the convention U(t) = exp(+i t A). The two agree when k (k - n)
is even and differ by a factor -1 when k is odd and n is even; the smallest
such case is (n, k) = (6, 3). Spectrally, the amplitude sums
exp(-i pi lambda_L / 2) times the mirror parity over the ascending mode
tuples L. Each L sits at the integer ladder step d_L = sum(L) - k (k - 1) / 2
(``tonks._ladder_steps``), with eigenvalue lambda_L = k (k - n) + 2 d_L and
parity (-1)**(k (n - 1) + d_L). Step 0 has parity (-1)**(k (n - 1)), and
each step up flips both the parity and the phase factor, so the sum is
(-1)**(k (n - 1)) * exp(-i pi k (k - n) / 2), which equals gamma(n, k)
because k (k - 1) is even. The full revival at t = pi carries
exp(-i pi k (k - n)), the square of gamma(n, k), in either convention.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import PreconditionError, PstlabError, ResourceCapError
from .graph_core import WeightedGraph, _check_cap, reflection_permutation, weighted_path
from .hardcore import (
    _ascending,
    _kept_graph,
    _kept_table,
    _mirror_permutation,
    _power_size,
    ascending_labels,
    decompose_components,
    symmetric_power,
)
from .partition import _quotient_graph, check_equitable, normalized_partition_matrix, orbit_partition
from .spectral import PST_TOL, SpectralDecomposition, _check_time, _pair_scan, eigh, evolve
from .tonks import _chain_eigenbasis, _chain_modes, _eigenbasis_deviation, _ladder_steps, _minors

MODULUS_TOL = 1e-9
PHASE_TOL = 1e-8
PERIOD_TOL = 1e-9
OFF_TARGET_TOL = 1e-8
UNITARITY_TOL = 1e-8
SPREAD_TOL = 1e-10
SPECTRUM_TOL = 1e-8
TRANSPORT_TOL = 1e-8
EIGENBASIS_TOL = 1e-12

# Time grid scanned by the conjecture probe: dyadic fractions of pi.
_PROBE_DEPTH = 6


@dataclass(frozen=True)
class CheckResult:
    """One named check: passes exactly when value <= tol."""

    name: str
    anchor: str
    passed: bool
    value: float
    tol: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification case of the weighted-path family, JSON-serializable."""

    family: ClassVar[str] = "hc-path"
    n: int
    k: int
    checks: tuple[CheckResult, ...]
    gamma_predicted: complex
    gamma_measured: complex
    runtime_s: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        doc = {
            "case": {"family": self.family, "n": self.n, "k": self.k},
            "checks": [
                {
                    "name": c.name,
                    "anchor": c.anchor,
                    "pass": c.passed,
                    "value": c.value,
                    "tol": c.tol,
                }
                for c in self.checks
            ],
            "gamma_predicted": [self.gamma_predicted.real, self.gamma_predicted.imag],
            "gamma_measured": [self.gamma_measured.real, self.gamma_measured.imag],
            "runtime_s": self.runtime_s,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


_QUARTER_PHASES = (1 + 0j, -1j, -1 + 0j, 1j)


def predicted_transfer_phase(n: int, k: int) -> complex:
    """Exact transfer phase gamma(n, k) = exp(-i pi k (n - k) / 2) at t = pi/2."""
    return _QUARTER_PHASES[(k * (n - k)) % 4]


def predicted_period_phase(n: int, k: int) -> complex:
    """Exact global phase of the revival at t = pi."""
    return complex(-1.0 if (k * (k - n)) % 2 else 1.0)


def _norm2_bound(m: np.ndarray) -> float:
    """Upper bound on the 2-norm of a Hermitian matrix: its largest absolute row sum or its Frobenius norm."""
    return min(float(np.abs(m).sum(axis=1).max()), float(np.linalg.norm(m)))


def _check(name: str, anchor: str, value: float, tol: float) -> CheckResult:
    return CheckResult(name, anchor, bool(value <= tol), float(value), float(tol))


def _hadamard_bound(u: np.ndarray, target: np.ndarray, k: int) -> float:
    """Bound on |det u[Y, X]| for all k-subsets with Y not the ``target`` image of X.

    Such a minor has a row free of the entries (target[x], x); by Hadamard's
    inequality it is at most that row's norm times the other k - 1 row norms.
    """
    rest = u.copy()
    rest[target, np.arange(u.shape[0])] = 0.0
    return float(np.linalg.norm(rest, axis=1).max() * np.linalg.norm(u, axis=1).max() ** (k - 1))


def _unitarity_check(u: np.ndarray, k: int, anchor: str) -> CheckResult:
    """Bound on the entries of C_k(u) C_k(u)^H - I, which is C_k(u u^H) - I by Cauchy-Binet.

    Each eigenvalue of C_k(u u^H) is a product of k eigenvalues within |u u^H - I|_2 of 1.
    """
    d = _norm2_bound(u @ u.conj().T - np.eye(u.shape[0]))
    return _check("unitarity", anchor, math.expm1(k * math.log1p(d)), UNITARITY_TOL)


@dataclass(frozen=True, eq=False)
class _Case:
    """What every check of one (n, k) case reads, built once.

    ``graph`` is the identical-walker graph on ascending labels. Its
    eigenbasis ``z`` is the read-only compound C_k(Z) of the path's
    eigenvectors as ``_compound`` returns it: column L, for the L-th ascending
    mode tuple, is the Slater determinant of those modes (Corollary 1), with
    eigenvalue ``values[L]``, the sum of their single-walker eigenvalues.
    Columns keep this mode order and the compound's signs; no check reads
    either. ``path_spec`` is the n-vertex path's own decomposition, its
    modes ascending. ``mirror`` is the 0-based mirror map, ``labels`` the
    0-based ascending labels, which double as the mode tuples of the
    columns, ``path_half``, ``path_full`` the path propagators at t = pi/2
    and t = pi, and ``mirror_amps`` the minors det U_1(pi/2)[mirror(X), X].
    """

    n: int
    k: int
    graph: WeightedGraph
    z: np.ndarray
    values: np.ndarray
    path_spec: SpectralDecomposition
    mirror: np.ndarray
    labels: np.ndarray
    path_half: np.ndarray
    path_full: np.ndarray
    mirror_amps: np.ndarray


def _build_case(n: int, k: int) -> _Case:
    # At k = n the graph is one zero-weight vertex and the mirror quotient is undefined.
    if not 1 <= k < n:
        raise PreconditionError(f"verify needs 1 <= k < n, got n={n}, k={k}")
    # Refuse before weighted_path(n) lists its n - 1 edges, since C(n, k) >= n here.
    _power_size(n, k)
    path = weighted_path(n)
    graph = symmetric_power(path, k)
    single = eigh(path)
    # The path runs along vertex order, so the chain route keeps the path's own eigenvectors and the compound's rows.
    z, values = _chain_modes(path, np.arange(n), False, k, single)
    z.flags.writeable = False
    # Ascending k-subsets of range(n): the site labels and the mode tuples alike.
    labels = _ascending(n, k)
    mirror = _mirror_permutation(n, k)
    path_half = evolve(single, math.pi / 2.0)
    return _Case(
        n=n,
        k=k,
        graph=graph,
        z=z,
        values=values,
        path_spec=single,
        mirror=mirror,
        labels=labels,
        path_half=path_half,
        path_full=evolve(single, math.pi),
        mirror_amps=_minors(path_half, labels[mirror], labels),
    )


def _corollary1(case: _Case) -> tuple[CheckResult, ...]:
    """The determinant eigenbasis diagonalizes the identical-walker graph.

    Every other check reads the decomposition, so this one measures it
    against the adjacency it stands for: the eigen-residual A Z - Z Lambda
    and the deviation of Z^T Z from the identity.
    """
    return (
        _check(
            "determinant-eigenbasis",
            "Corollary 1: Slater determinants diagonalize the identical-walker graph",
            _eigenbasis_deviation(case.graph, case.z, case.values),
            EIGENBASIS_TOL,
        ),
    )


def _periodicity(case: _Case) -> tuple[CheckResult, ...]:
    """Full revival at t = pi up to the predicted phase: exact diagonal minors, a bound off it."""
    phase = predicted_period_phase(case.n, case.k)
    diagonal = _minors(case.path_full, case.labels, case.labels)
    off_diagonal = _hadamard_bound(case.path_full, np.arange(case.n), case.k)
    dev = max(float(np.abs(diagonal - phase).max()), off_diagonal)
    return (
        _check("periodicity-at-pi", "global revival of the identical-walker walk", dev, PERIOD_TOL),
        _unitarity_check(case.path_full, case.k, "propagator unitarity at t = pi"),
    )


def _theorem1(case: _Case) -> tuple[CheckResult, ...]:
    """Mirror transfer of every ascending label at t = pi/2 with the closed-form phase.

    Checks, for every vertex of the identical-walker graph: the amplitude
    toward the mirror label has modulus 1, matches gamma(n, k), and every
    other amplitude vanishes (a Hadamard bound).

    expansion-sign-law rebuilds the same amplitudes through the alternating
    parities (module docstring): the amplitude of X is the sum over mode
    tuples L of C_k(Z)[X, L]**2 times (-1)**(k (n - 1) + d_L)
    exp(-i pi lambda_L / 2). That factor is c times the product over the
    modes j of L of g_j = (-1)**j exp(-i pi lambda_j / 2), with
    c = (-1)**(k (n - 1) + k (k - 1) / 2), so by Cauchy-Binet the sum is the
    k x k minor c det (Z G Z^T)[X, X], G = diag(g). The check reads the largest
    distance of these minors from the mirror minors det U_1(pi/2)[JX, X].
    """
    n, k, amps = case.n, case.k, case.mirror_amps
    gamma = predicted_transfer_phase(n, k)

    modulus_dev = float((1.0 - np.abs(amps)).max())
    phase_dev = float(np.abs(np.conj(gamma) * amps - 1.0).max())
    off_target = _hadamard_bound(case.path_half, reflection_permutation(n), k)

    z, lam = case.path_spec.eigenvectors, case.path_spec.eigenvalues
    g = np.exp(-1j * (math.pi / 2.0) * lam) * (-1.0) ** np.arange(n)
    c = -1.0 if (k * (n - 1) + k * (k - 1) // 2) % 2 else 1.0
    rebuilt = c * _minors((z * g) @ z.T, case.labels, case.labels)
    sign_law_dev = float(np.abs(rebuilt - amps).max())

    return (
        _check("transfer-modulus", "mirror transfer modulus for every label", modulus_dev, MODULUS_TOL),
        _check("transfer-phase", "closed-form transfer phase gamma(n, k)", phase_dev, PHASE_TOL),
        _check("off-target", "all non-mirror amplitudes vanish", off_target, OFF_TARGET_TOL),
        _check(
            "expansion-sign-law",
            "projector-weight expansion with alternating class signs",
            sign_law_dev,
            PHASE_TOL,
        ),
        _unitarity_check(case.path_half, k, "propagator unitarity at t = pi/2"),
    )


def _lemma5_and_theorem2(case: _Case) -> tuple[CheckResult, ...]:
    """Mirror-quotient structure: spectral thinning, periodicity and transport.

    The mirror-orbit partition of the identical-walker graph must be
    equitable; its quotient keeps exactly every second eigenvalue class, is
    periodic at t = pi/2 with phase gamma(n, k), and its diagonal reproduces
    the mirror-transfer amplitudes of the parent walk. The classes are the
    integer ladder steps d_L of the columns' mode tuples
    (``tonks._ladder_steps``); a class survives when one of its columns has
    even mirror parity, read from the same parity overlaps that select the
    even columns.

    The quotient Q = P^T A P is built from the graph, and no eigensolve of it
    runs. Each Slater column has a definite mirror parity, and the even ones
    Z_e, pushed down as Y = P^T Z_e, stand for the quotient's eigenbasis with
    their eigenvalues Lambda_e. Let R = Q Y - Y Lambda_e and E = Y^T Y - I,
    and write |M|_b for the smaller of the largest absolute row sum and the
    Frobenius norm of M. Q and E are symmetric, so |Q|_b and e = |E|_b bound
    their 2-norms. For square Y and e < 1 the sorted spectrum of Q lies within

        r = sqrt(1 + e) |R|_F + e (|Q|_b + max |Lambda_e|)

    of the sorted Lambda_e entrywise: Weyl's inequality bounds the sorted
    spectrum of the symmetric Y^T Q Y = Lambda_e + E Lambda_e + Y^T R against
    the sorted Lambda_e, and Ostrowski's theorem on congruences bounds it
    against the spectrum of Q (Horn and Johnson, Matrix Analysis, ch. 4). At
    e >= 1 the term e |Q|_b alone exceeds the tolerance for any nonzero
    quotient, so r never passes a case it does not cover. At e = 0 this is the classical residual bound
    |R| for an orthonormal basis (Parlett, The Symmetric Eigenvalue
    Problem). The value of quotient-thinning-match is r, plus the distance
    of Lambda_e from the mean computed eigenvalue of their ladder steps,
    plus the largest deviation of a column's mirror parity from +-1, so a
    mixed column cannot slip into either sector.

    No quotient walk is assembled: with D = diag(exp(-i pi Lambda_e / 2)),
    the walk Y D Y^T at t = pi/2 is read off the certified pairs. Since

        Y D Y^T - gamma I = Y (D - gamma I) Y^T + gamma (Y Y^T - I),

    |Y|_2^2 <= 1 + e and |Y Y^T - I|_2 = |Y^T Y - I|_2 for square Y, the
    value of quotient-periodicity is the bound max |D - gamma| (1 + e) + e
    on its largest entry deviation from gamma I. quotient-transport compares
    the diagonal (Y * Y) D with the mirror amplitude of each cell's smallest
    member, the first occurrence of its cell id. When the quotient size
    differs from the even count, the thinning match and the two
    quotient-walk checks fail with the count mismatch.
    """
    identical, z, mirror = case.graph, case.z, case.mirror
    part = orbit_partition(identical, mirror)
    report = check_equitable(identical, part)
    checks = [
        _check("mirror-equitable", "mirror orbits form an equitable partition", report.max_spread, SPREAD_TOL)
    ]
    gamma = predicted_transfer_phase(case.n, case.k)
    if report.equitable:
        pm = normalized_partition_matrix(identical, part)
        quot = _quotient_graph(identical, pm)

        even_overlap = np.einsum("vj,vj->j", z[mirror, :], z)
        even = even_overlap > 0.0
        lam_e = case.values[even]
        steps = _ladder_steps(case.labels)
        means = np.bincount(steps, weights=case.values) / np.bincount(steps)
        flags = np.bincount(steps[even], minlength=means.size) > 0
        mismatch = abs(quot.n - lam_e.size)
        if mismatch:
            match_dev = period_dev = transport_dev = 1.0 + mismatch
        else:
            y = pm.q.T @ z[:, even]
            a = quot.adjacency
            residual = float(np.linalg.norm(a @ y - y * lam_e))
            gram = _norm2_bound(y.T @ y - np.eye(quot.n))
            bound = math.sqrt(1.0 + gram) * residual + gram * (_norm2_bound(a) + float(np.abs(lam_e).max()))
            match_dev = (
                bound
                + float(np.abs(means[steps[even]] - lam_e).max())
                + float((1.0 - np.abs(even_overlap)).max())
            )

            d = np.exp(-1j * (math.pi / 2.0) * lam_e)
            period_dev = float(np.abs(d - gamma).max()) * (1.0 + gram) + gram
            _, first = np.unique(part.cell_index, return_index=True)
            weights = y * y
            miss = weights @ d.real + 1j * (weights @ d.imag) - case.mirror_amps[first]
            transport_dev = float(np.hypot(miss.real, miss.imag).max())
        checks.append(
            _check(
                "quotient-thinning-match",
                "quotient spectrum equals the even-sector multiset",
                match_dev,
                SPECTRUM_TOL,
            )
        )
        alternating = bool(np.all(flags[1:] != flags[:-1]))
        checks.append(
            _check(
                "quotient-thinning-alternation",
                "surviving eigenvalue classes alternate along the ladder",
                0.0 if alternating else 1.0,
                0.5,
            )
        )
        checks.append(
            _check(
                "quotient-periodicity",
                "quotient walk collapses to gamma(n, k) times identity at t = pi/2",
                period_dev,
                PERIOD_TOL,
            )
        )
        checks.append(
            _check(
                "quotient-transport",
                "quotient diagonal reproduces the parent mirror amplitudes",
                transport_dev,
                TRANSPORT_TOL,
            )
        )
    return tuple(checks)


def run_case(n: int, k: int) -> VerificationReport:
    """Every check of one (n, k) case, with 1 <= k < n, in a single report.

    The case is built once and shared by every check: its eigenbasis comes
    from one eigensolve of the n-vertex path, the only eigensolve of the
    case, and its only walks are the two n x n path propagators at t = pi/2
    and t = pi. The first check confirms that basis against the
    C(n, k)-vertex graph, and the Lemma 5 block confirms its even half
    against the mirror quotient.
    Failures of preconditions or resource limits are captured in the
    report's ``error`` field instead of propagating.
    """
    start = time.perf_counter()
    try:
        case = _build_case(n, k)
        checks = _corollary1(case) + _periodicity(case) + _theorem1(case) + _lemma5_and_theorem2(case)
    except PstlabError as exc:
        return VerificationReport(
            n=n,
            k=k,
            checks=(),
            gamma_predicted=0j,
            gamma_measured=0j,
            runtime_s=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    return VerificationReport(
        n=n,
        k=k,
        checks=checks,
        gamma_predicted=predicted_transfer_phase(n, k),
        gamma_measured=complex(case.mirror_amps[0]),
        runtime_s=time.perf_counter() - start,
    )


def sweep(n_range: tuple[int, int], k_range: tuple[int, int]) -> tuple[VerificationReport, ...]:
    """Run every (n, k) case with 1 <= k < n over inclusive ranges, in (n, k) order.

    Needs n >= 2 and k >= 1 at the low ends; walker counts k >= n are
    skipped. Since C(n, k) >= n for every such case, an ``n_range`` that
    reaches past the size cap is refused up front. Per-case errors are
    captured inside the corresponding report.
    """
    n_lo, n_hi = n_range
    k_lo, k_hi = k_range
    if n_lo > n_hi or k_lo > k_hi:
        raise PreconditionError("ranges must satisfy lo <= hi")
    if n_lo < 2 or k_lo < 1:
        raise PreconditionError(f"verify needs n >= 2 and k >= 1, got n from {n_lo}, k from {k_lo}")
    _check_cap(n_hi, f"n = {n_hi} gives at least {n_hi} vertices")
    return tuple(
        run_case(n, k)
        for n in range(n_lo, n_hi + 1)
        for k in range(k_lo, min(k_hi, n - 1) + 1)
    )


@dataclass(frozen=True)
class ProbeReport:
    """Exploratory scan for transfer on a non-path input; carries no pass/fail.

    ``pairs_scanned`` counts the label pairs whose amplitudes the scan
    computed, out of ``pairs_total = m (m - 1) / 2`` for ``m`` labels.
    """

    n: int
    k: int
    single_pst_times: tuple[float, ...]
    times_scanned: int
    best_modulus: float
    best_time: float
    best_source: tuple[int, ...]
    best_target: tuple[int, ...]
    achieves_transfer: bool
    pairs_scanned: int
    pairs_total: int
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "single_pst_times": list(self.single_pst_times),
            "times_scanned": self.times_scanned,
            "best_modulus": self.best_modulus,
            "best_time": self.best_time,
            "best_source": list(self.best_source),
            "best_target": list(self.best_target),
            "achieves_transfer": self.achieves_transfer,
            "pairs_scanned": self.pairs_scanned,
            "pairs_total": self.pairs_total,
            "notes": list(self.notes),
        }


def _probe_grid() -> list[float]:
    times = {math.pi}
    for depth in range(1, _PROBE_DEPTH + 1):
        for odd in range(1, 2**depth, 2):
            times.add(odd * math.pi / 2**depth)
    return sorted(times)


def conjecture_probe(g: WeightedGraph, k: int, pst_time: float | None = None) -> ProbeReport:
    """Scan a dyadic time grid, and ``pst_time`` when given, for k-walker transfer on any graph.

    Meant for inputs outside the path family: takes the ascending-label
    hard-core walk regardless of component structure, records whether the
    deleted power still splits into k! components, and reports the best
    off-diagonal modulus over the scanned times plus the scanned times at
    which a single walker transfers perfectly (within ``PST_TOL``).
    Exploratory output only.

    The hard-core walk's eigenbasis comes from the cheapest route that holds.
    At k = 1 the hard-core graph is g itself, so the single walker's scan
    serves both. On a chain, a connected path or cycle, with k <= n / 2 the
    walkers are free fermions (``tonks._chain_eigenbasis``): the compound of
    the single walker's eigenvectors, with one more n x n solve only for the
    signed wrap hop of a cycle at even k, noted in ``notes``. Any other input
    solves ``symmetric_power(g, k)``.

    No propagator is assembled. Each walk amplitude is ``sum_l z_il z_jl
    exp(-i t lambda_l)``, taken for a block of label pairs ``i < j`` at every
    time at once, and the time-free bound ``sum_l |z_il| |z_jl|`` on its
    modulus leaves out every pair that cannot reach the best modulus found so
    far, or ``1 - PST_TOL`` if that is smaller, less a rounding slack of
    ``64 m eps`` (see ``spectral._pair_scan``). The bound, and so
    ``pairs_scanned``, depends on the basis chosen inside degenerate
    eigenspaces, which differs between the routes.
    The single walker's transfer times come from the same scan of its vertex
    pairs. Ties go to the largest modulus, then the earliest time, then the
    smallest ``(i, j)``; the report names ``labels[i]`` the target and
    ``labels[j]`` the source. With no positive amplitude, as with no edge or
    no pair of labels, both are empty and ``best_time`` is 0.
    """
    m = _power_size(g.n, k)
    notes: list[str] = []
    candidates = _probe_grid()
    if pst_time is not None:
        candidates = sorted(set(candidates) | {_check_time(pst_time)})
    times = np.array(candidates)
    single = eigh(g)
    transfers, best, scanned = _pair_scan(single, times)
    single_times = [t for t, hit in zip(candidates, transfers) if hit]
    if not single_times:
        notes.append("no single-walker transfer found on the probe grid")

    try:
        decompose_components(_kept_graph(g, _kept_table(g.n, k)), g.n, k)
    except ResourceCapError:
        notes.append("deleted power graph exceeds the size cap; component structure unchecked")
    except PstlabError as exc:
        notes.append(str(exc))

    if k > 1:
        chain = _chain_eigenbasis(g, k, single)
        if chain is None:
            spec = eigh(symmetric_power(g, k))
        else:
            spec, route = chain
            notes.append(route)
        _, best, scanned = _pair_scan(spec, times)
    modulus, when, i, j = best
    labels = ascending_labels(g.n, k)
    found = when >= 0
    return ProbeReport(
        n=g.n,
        k=k,
        single_pst_times=tuple(single_times),
        times_scanned=len(candidates),
        best_modulus=modulus,
        best_time=candidates[when] if found else 0.0,
        best_source=labels[j] if found else (),
        best_target=labels[i] if found else (),
        achieves_transfer=modulus >= 1.0 - PST_TOL,
        pairs_scanned=scanned,
        pairs_total=m * (m - 1) // 2,
        notes=tuple(notes),
    )
