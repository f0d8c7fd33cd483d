"""End-to-end verifiers for hard-core walker transfer on weighted paths.

Every check of one (n, k) case reads one shared context: the identical-walker
graph on ascending labels, its spectral decomposition, the mirror map and
the path propagators at t = pi/2 and t = pi. The decomposition is built from
Slater determinants of the n-vertex path's modes (Corollary 1), and a check
ties it back to the graph's adjacency. The mirror quotient of the graph is
certified against the even-parity Slater columns by a residual bound, not
diagonalized, so the n-vertex path is the only eigensolve of a case. Walkers
on a path never cross, so U_k(t)[Y, X] = det U_1(t)[Y, X] (Karlin and
McGregor 1959; compound matrices in Horn and Johnson, Matrix Analysis,
0.8.1): every amplitude a check reads is a k x k minor of a path propagator.

Phase bookkeeping: propagators are U(t) = exp(-i t A), and the amplitude
toward the mirror label at t = pi/2 is exactly

    gamma(n, k) = exp(+i pi k (k - n) / 2) = exp(-i pi k (n - k) / 2).

This is the complex conjugate of exp(-i pi k (k - n) / 2), the form that
belongs to the convention U(t) = exp(+i t A). The two agree when k (k - n)
is even and differ by a factor -1 when k is odd and n is even; the smallest
such case is (n, k) = (6, 3). Spectrally, the amplitude sums
exp(-i pi lambda / 2) times the mirror parity over the eigenvalue classes.
The bottom class lambda = k (k - n) has parity (-1)**(k (n - 1)), and each
step of 2 up the ladder flips both the parity and the phase factor, so the
sum is (-1)**(k (n - 1)) * exp(-i pi k (k - n) / 2), which equals gamma(n, k)
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
from .graph_core import WeightedGraph, reflection_permutation, resolve_size_cap, weighted_path
from .hardcore import (
    _ascending,
    _kept_graph,
    _kept_table,
    _mirror_permutation,
    ascending_labels,
    decompose_components,
    symmetric_power,
)
from .partition import _quotient_graph, check_equitable, normalized_partition_matrix, orbit_partition
from .spectral import PST_TOL, SpectralDecomposition, _fix_signs, eigh, evolve, find_pst_pairs
from .tonks import _eigenbasis_deviation, _minors, slater_decomposition

MODULUS_TOL = 1e-9
PHASE_TOL = 1e-8
PERIOD_TOL = 1e-9
OFF_TARGET_TOL = 1e-8
UNITARITY_TOL = 1e-8
SPREAD_TOL = 1e-10
SPECTRUM_TOL = 1e-8
TRANSPORT_TOL = 1e-8
EIGENBASIS_TOL = 1e-12

# Eigenvalues closer than this are treated as one degenerate class when
# building projectors; the hard-core ladders have unit gaps times two.
_CLASS_GAP = 1e-6

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


def _eigenvalue_classes(values: np.ndarray) -> np.ndarray:
    """Degenerate class id of each ascending eigenvalue, counted from 0.

    A new class starts wherever the next eigenvalue lies more than
    ``_CLASS_GAP`` above the previous one.
    """
    return np.concatenate(([0], np.cumsum(np.diff(values) > _CLASS_GAP)))


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

    ``graph`` is the identical-walker graph on ascending labels, ``spec`` its
    decomposition, ``class_ids`` the degenerate class of each eigenvector
    column and ``class_values`` the mean eigenvalue of each class, ``mirror``
    the 0-based mirror map, ``labels`` the 0-based ascending labels,
    ``path_half``, ``path_full`` the path propagators at t = pi/2 and t = pi,
    and ``mirror_amps`` the minors det U_1(pi/2)[mirror(X), X].
    """

    n: int
    k: int
    graph: WeightedGraph
    spec: SpectralDecomposition
    class_ids: np.ndarray
    class_values: np.ndarray
    mirror: np.ndarray
    labels: np.ndarray
    path_half: np.ndarray
    path_full: np.ndarray
    mirror_amps: np.ndarray


def _build_case(n: int, k: int, cap: int | None) -> _Case:
    # At k = n the graph is one zero-weight vertex and the mirror quotient is undefined.
    if not 1 <= k < n:
        raise PreconditionError(f"verify needs 1 <= k < n, got n={n}, k={k}")
    # Refuse before weighted_path(n) lists its n - 1 edges, since C(n, k) >= n here.
    m = math.comb(n, k)
    limit = resolve_size_cap(cap)
    if m > limit:
        raise ResourceCapError(f"symmetric power has {m} vertices, cap is {limit}")
    path = weighted_path(n)
    graph = symmetric_power(path, k, cap=cap)
    single = eigh(path)
    spec = slater_decomposition(single, k)
    class_ids = _eigenvalue_classes(spec.eigenvalues)
    mirror, labels = _mirror_permutation(n, k), _ascending(n, k)
    path_half = evolve(single, math.pi / 2.0)
    return _Case(
        n=n,
        k=k,
        graph=graph,
        spec=spec,
        class_ids=class_ids,
        class_values=np.bincount(class_ids, weights=spec.eigenvalues) / np.bincount(class_ids),
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
            _eigenbasis_deviation(case.graph, case.spec.eigenvectors, case.spec.eigenvalues),
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
    other amplitude vanishes (a Hadamard bound). A spectral route recomputes
    the amplitudes from per-class projector weights of the Slater basis with
    alternating signs and must agree with the minors.
    """
    n, k, amps = case.n, case.k, case.mirror_amps
    gamma = predicted_transfer_phase(n, k)

    modulus_dev = float((1.0 - np.abs(amps)).max())
    phase_dev = float(np.abs(np.conj(gamma) * amps - 1.0).max())
    off_target = _hadamard_bound(case.path_half, reflection_permutation(n), k)

    z, lam = case.spec.eigenvectors, case.class_values
    global_sign = -1.0 if (k * (n - 1)) % 2 else 1.0
    sign = global_sign * (1.0 - 2.0 * (np.rint((lam - lam[0]) / 2.0) % 2))
    coef = (np.exp(-1j * (math.pi / 2.0) * lam) * sign)[case.class_ids]
    # Two real products: a complex one would first copy the m x m weights to complex.
    weights = z * z
    rebuilt = weights @ coef.real + 1j * (weights @ coef.imag)
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
    the mirror-transfer amplitudes of the parent walk. The even-sector
    dimension of each class is its number of columns of even mirror parity,
    read from the same parity overlaps that select the even columns.

    The quotient Q = P^T A P is built from the graph, and no eigensolve of it
    runs. Each Slater column has a definite mirror parity, and the even ones
    Z_e, pushed down as Y = P^T Z_e, stand for the quotient's eigenbasis with
    their eigenvalues Lambda_e. Let R = Q Y - Y Lambda_e and E = Y^T Y - I,
    and write |M|_b for the smaller of the largest absolute row sum and the
    Frobenius norm of M. Q and E are symmetric, so |Q|_b and e = |E|_b bound
    their 2-norms. For square Y and e < 1 the sorted spectrum of Q lies within

        r = sqrt(1 + e) |R|_F + e (|Q|_b + max |Lambda_e|)

    of Lambda_e entrywise: Weyl's inequality bounds the spectrum of the
    symmetric Y^T Q Y = Lambda_e + E Lambda_e + Y^T R against Lambda_e, and
    Ostrowski's theorem on congruences bounds it against the spectrum of Q
    (Horn and Johnson, Matrix Analysis, ch. 4). At e >= 1 the term e |Q|_b
    alone exceeds the tolerance for any nonzero quotient, so r never passes
    a case it does not cover. At e = 0 this is the classical residual bound
    |R| for an orthonormal basis (Parlett, The Symmetric Eigenvalue
    Problem). The value of quotient-thinning-match is r,
    plus the distance of Lambda_e from the means of their classes, plus
    the largest deviation of a column's mirror parity from +-1, so a mixed
    column cannot slip into either sector. When the quotient size differs
    from the even count, that check and the two quotient-walk checks fail
    with the count mismatch.
    """
    identical, spec, mirror = case.graph, case.spec, case.mirror
    part = orbit_partition(identical, mirror)
    report = check_equitable(identical, part)
    checks = [
        _check("mirror-equitable", "mirror orbits form an equitable partition", report.max_spread, SPREAD_TOL)
    ]
    gamma = predicted_transfer_phase(case.n, case.k)
    if report.equitable:
        pm = normalized_partition_matrix(identical, part)
        quot = _quotient_graph(identical, pm)

        z = spec.eigenvectors
        even_overlap = np.einsum("vj,vj->j", z[mirror, :], z)
        even = even_overlap > 0.0
        lam_e = spec.eigenvalues[even]
        flags = np.bincount(case.class_ids[even], minlength=case.class_values.size) > 0
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
                + float(np.abs(case.class_values[case.class_ids[even]] - lam_e).max())
                + float((1.0 - np.abs(even_overlap)).max())
            )

            u_quot = evolve(SpectralDecomposition(lam_e, _fix_signs(y)), math.pi / 2.0)
            period_dev = float(np.abs(u_quot - gamma * np.eye(quot.n)).max())
            # The first occurrence of each cell id is the smallest member of that cell.
            _, first = np.unique(part.cell_index, return_index=True)
            miss = np.diag(u_quot) - case.mirror_amps[first]
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


def run_case(n: int, k: int, cap: int | None = None) -> VerificationReport:
    """Every check of one (n, k) case, with 1 <= k < n, in a single report.

    The case is built once and shared by every check: its eigenbasis comes
    from one eigensolve of the n-vertex path, the only eigensolve of the
    case. The first check confirms that basis against the C(n, k)-vertex
    graph, and the Lemma 5 block confirms its even half against the mirror
    quotient.
    Failures of preconditions or resource limits are captured in the
    report's ``error`` field instead of propagating.
    """
    start = time.perf_counter()
    try:
        case = _build_case(n, k, cap)
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


def sweep(
    n_range: tuple[int, int],
    k_range: tuple[int, int],
    cap: int | None = None,
) -> tuple[VerificationReport, ...]:
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
    limit = resolve_size_cap(cap)
    if n_hi > limit:
        raise ResourceCapError(f"n = {n_hi} gives at least {n_hi} vertices, cap is {limit}")
    return tuple(
        run_case(n, k, cap=cap)
        for n in range(n_lo, n_hi + 1)
        for k in range(k_lo, min(k_hi, n - 1) + 1)
    )


@dataclass(frozen=True)
class ProbeReport:
    """Exploratory scan for transfer on a non-path input; carries no pass/fail."""

    n: int
    k: int
    single_pst_times: tuple[float, ...]
    times_scanned: int
    best_modulus: float
    best_time: float
    best_source: tuple[int, ...]
    best_target: tuple[int, ...]
    achieves_transfer: bool
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
            "notes": list(self.notes),
        }


def _probe_grid() -> list[float]:
    times = {math.pi}
    for depth in range(1, _PROBE_DEPTH + 1):
        for odd in range(1, 2**depth, 2):
            times.add(odd * math.pi / 2**depth)
    return sorted(times)


def conjecture_probe(
    g: WeightedGraph, k: int, pst_time: float | None = None, cap: int | None = None
) -> ProbeReport:
    """Scan a dyadic time grid, and ``pst_time`` when given, for k-walker transfer on any graph.

    Meant for inputs outside the path family: builds the ascending-label
    hard-core graph regardless of component structure, records whether the
    deleted power still splits into k! components, and reports the best
    off-diagonal modulus over the scanned times plus the scanned times at
    which a single walker transfers perfectly (within ``PST_TOL``).
    Exploratory output only.
    """
    notes: list[str] = []
    spec_single = eigh(g)
    candidates = _probe_grid()
    if pst_time is not None:
        candidates = sorted(set(candidates) | {float(pst_time)})
    single_times = [t for t in candidates if find_pst_pairs(spec_single, t)]
    if not single_times:
        notes.append("no single-walker transfer found on the probe grid")

    # Validates k before the kept labels are listed.
    identical = symmetric_power(g, k, allow_non_path=True, cap=cap)
    try:
        decompose_components(_kept_graph(g, _kept_table(g.n, k, cap)), g.n, k)
    except ResourceCapError:
        notes.append("deleted power graph exceeds the size cap; component structure unchecked")
    except PstlabError as exc:
        notes.append(str(exc))

    spec = eigh(identical)
    labels = ascending_labels(g.n, k)
    best = (0.0, 0.0, 0, 0)
    for t in candidates:
        u = np.abs(evolve(spec, t))
        np.fill_diagonal(u, 0.0)
        flat = int(np.argmax(u))
        i, j = divmod(flat, identical.n)
        if u[i, j] > best[0]:
            best = (float(u[i, j]), float(t), i, j)
    return ProbeReport(
        n=g.n,
        k=k,
        single_pst_times=tuple(single_times),
        times_scanned=len(candidates),
        best_modulus=best[0],
        best_time=best[1],
        best_source=labels[best[3]],
        best_target=labels[best[2]],
        achieves_transfer=best[0] >= 1.0 - PST_TOL,
        notes=tuple(notes),
    )
