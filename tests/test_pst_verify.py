"""End-to-end verification reports for many-walker transfer on weighted paths."""

import json
import math

import numpy as np
import pytest

from pstlab import (
    PreconditionError,
    conjecture_probe,
    eigh,
    predicted_period_phase,
    predicted_transfer_phase,
    run_case,
    sweep,
    verify_lemma5_and_theorem2,
    verify_periodicity,
    verify_theorem1,
    weighted_path,
)
from pstlab.pst_verify import _mirror_permutation

from conftest import cycle_graph


def test_predicted_transfer_phase_frozen():
    assert predicted_transfer_phase(4, 2) == 1
    assert predicted_transfer_phase(5, 2) == -1
    assert predicted_transfer_phase(6, 3) == -1j
    assert predicted_transfer_phase(7, 3) == 1
    assert predicted_transfer_phase(2, 1) == -1j
    assert predicted_transfer_phase(4, 1) == 1j


def test_predicted_period_phase_frozen():
    # e**(-i*pi*k*(k-n)) is a strict sign, the square of the transfer phase
    assert predicted_period_phase(4, 2) == 1
    assert predicted_period_phase(5, 2) == 1
    assert predicted_period_phase(6, 3) == -1
    assert predicted_period_phase(3, 1) == 1
    for n, k in [(4, 2), (5, 2), (6, 3), (7, 3), (5, 1)]:
        assert predicted_period_phase(n, k) == predicted_transfer_phase(n, k) ** 2


def test_single_walker_phase_matches_closed_form():
    for n in range(2, 9):
        expected = (-1j) ** (n - 1)
        assert abs(predicted_transfer_phase(n, 1) - expected) <= 1e-15


def test_mirror_permutation_small():
    perm = _mirror_permutation(4, 2)
    # ascending pairs on 4 sites: 12 13 14 23 24 34 -> 34 24 14 23 13 12
    assert list(perm) == [5, 4, 2, 3, 1, 0]


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (5, 1)])
def test_verifiers_green(n, k):
    for report in (
        verify_periodicity(n, k),
        verify_theorem1(n, k),
        verify_lemma5_and_theorem2(n, k),
    ):
        assert report.error is None
        assert report.ok, [c for c in report.checks if not c.passed]


def test_run_case_merges_all_checks():
    report = run_case("hc-path", 5, 2)
    assert report.ok
    names = [c.name for c in report.checks]
    assert names == [
        "periodicity-at-pi",
        "unitarity",
        "transfer-modulus",
        "transfer-phase",
        "off-target",
        "expansion-sign-law",
        "unitarity",
        "mirror-equitable",
        "quotient-thinning-match",
        "quotient-thinning-alternation",
        "quotient-periodicity",
        "quotient-transport",
    ]
    assert abs(report.gamma_measured - report.gamma_predicted) <= 1e-8
    assert abs(report.gamma_predicted - (-1.0)) == 0.0


@pytest.mark.parametrize("n,k", [(n, k) for n in range(4, 8) for k in (2, 3)])
def test_run_case_diagonalizes_twice(monkeypatch, n, k):
    # one eigensolve of the C(n, k)-vertex graph and one of its mirror quotient
    import pstlab.spectral

    real = pstlab.spectral.eigh_matrix
    dims = []

    def counting(a):
        dims.append(np.asarray(a).shape[0])
        return real(a)

    monkeypatch.setattr(pstlab.spectral, "eigh_matrix", counting)
    report = run_case("hc-path", n, k)
    assert report.ok
    m = math.comb(n, k)
    fixed = int((_mirror_permutation(n, k) == np.arange(m)).sum())
    assert dims == [m, (m + fixed) // 2]


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 3)])
def test_run_case_equals_public_verifiers(n, k):
    merged = run_case("hc-path", n, k)
    parts = (verify_periodicity(n, k), verify_theorem1(n, k), verify_lemma5_and_theorem2(n, k))

    def fields(checks):
        return [(c.name, c.anchor, c.passed, c.value, c.tol) for c in checks]

    assert fields(merged.checks) == [f for part in parts for f in fields(part.checks)]
    assert merged.gamma_predicted == parts[1].gamma_predicted
    assert merged.gamma_measured == parts[1].gamma_measured


def test_run_case_unknown_family():
    with pytest.raises(PreconditionError):
        run_case("ring", 4, 2)


def test_report_schema():
    report = run_case("hc-path", 4, 2)
    doc = report.to_dict()
    assert set(doc) == {"case", "checks", "gamma_predicted", "gamma_measured", "runtime_s"}
    assert doc["case"] == {"family": "hc-path", "n": 4, "k": 2}
    for check in doc["checks"]:
        assert set(check) == {"name", "anchor", "pass", "value", "tol"}
        assert isinstance(check["pass"], bool)
    assert isinstance(doc["gamma_predicted"], list) and len(doc["gamma_predicted"]) == 2
    json.dumps(doc)  # schema must be serializable as-is


def test_report_error_capture():
    report = run_case("hc-path", 6, 3, cap=10)
    assert report.error is not None
    assert not report.ok
    assert report.checks == ()
    assert "error" in report.to_dict()


def test_thinned_spectrum_5_2():
    # the mirror quotient of the 2-walker graph on 5 sites keeps exactly the
    # even-parity rungs of the ladder, here with their multiplicities
    from pstlab import mirror_partition, normalized_partition_matrix, quotient, symmetric_power

    sg = symmetric_power(weighted_path(5), 2)
    b = quotient(sg, normalized_partition_matrix(sg, mirror_partition(sg, 5, 2)))
    vals = eigh(b).eigenvalues
    assert np.abs(vals - np.array([-6.0, -2.0, -2.0, 2.0, 2.0, 6.0])).max() <= 1e-9


def test_sweep_orders_and_skips():
    reports = sweep(["hc-path"], (3, 5), (1, 2))
    cases = [(r.n, r.k) for r in reports]
    assert cases == [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
    assert all(r.ok for r in reports)


def test_sweep_worker_determinism():
    solo = sweep(["hc-path"], (3, 5), (2, 3))
    pooled = sweep(["hc-path"], (3, 5), (2, 3), workers=3)

    def strip(rep):
        doc = rep.to_dict()
        doc.pop("runtime_s")
        return doc

    assert [strip(r) for r in solo] == [strip(r) for r in pooled]


def test_sweep_validation():
    with pytest.raises(PreconditionError):
        sweep(["hc-path"], (5, 3), (1, 1))
    with pytest.raises(PreconditionError):
        sweep(["hc-path"], (3, 4), (1, 1), workers=0)
    with pytest.raises(PreconditionError):
        sweep(["bad-family"], (3, 4), (1, 1))


def test_three_way_amplitude_agreement():
    # identical endpoints measured in the deleted power, the symmetric power
    # and the mirror quotient all agree at the transfer time
    from pstlab import (
        apply_deletion,
        cartesian_power,
        deletion_mask,
        evolve,
        mirror_partition,
        normalized_partition_matrix,
        quotient,
        symmetric_power,
    )

    n, k, t = 5, 2, math.pi / 2.0
    mask = deletion_mask(n, k)
    g_hc = apply_deletion(cartesian_power(weighted_path(n), k), mask)
    labels = mask.kept_labels()
    src = labels.index((1, 2))
    dst = labels.index((4, 5))
    amp_distinct = evolve(eigh(g_hc), t).matrix[dst, src]

    sg = symmetric_power(weighted_path(n), k)
    amp_token = evolve(eigh(sg), t).matrix[-1, 0]

    p = mirror_partition(sg, n, k)
    pm = normalized_partition_matrix(sg, p)
    b = quotient(sg, pm)
    u_b = evolve(eigh(b), t).matrix
    c0 = int(p.cell_index[0])
    amp_quotient = u_b[c0, c0]

    assert abs(amp_distinct - amp_token) <= 1e-10
    assert abs(amp_token - amp_quotient) <= 1e-10
    assert abs(abs(amp_token) - 1.0) <= 1e-9


def test_conjecture_probe_weighted_path():
    report = conjecture_probe(weighted_path(5), 2)
    assert report.achieves_transfer
    assert report.best_modulus >= 1.0 - 1e-9
    assert math.isclose(report.best_time, math.pi / 2.0, abs_tol=1e-12)
    assert math.pi / 2.0 in report.single_pst_times
    assert report.times_scanned >= 64


def test_conjecture_probe_cycle_notes_components():
    report = conjecture_probe(cycle_graph(4), 2)
    assert not report.achieves_transfer
    assert any("component" in note for note in report.notes)
    doc = report.to_dict()
    json.dumps(doc)
    assert doc["n"] == 4 and doc["k"] == 2
