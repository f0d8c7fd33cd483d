"""Command line behaviour: output documents, diagnostics and exit codes."""

import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstlab import ascending_labels, load_graph, save_graph, simple_path, weighted_path
from pstlab.cli import main

from conftest import graph_documents, graph_from_edges, hamming_partition, partition_documents, seeded_ring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(save_graph(g))
    return str(path)


def save_partition(p):
    """A partition document, as the format in ``pstlab.partition`` defines it."""
    return json.dumps({"n": p.n, "cells": [list(cell) for cell in p.cells]})


def write_partition(tmp_path, p, name="p.json"):
    path = tmp_path / name
    path.write_text(save_partition(p))
    return str(path)


def label_of_index(i, n, k):
    """Oracle: the 1-based sites of row-major flat index ``i`` of the n**k power labels."""
    sites = []
    for _ in range(k):
        i, site = divmod(i, n)
        sites.append(site + 1)
    return tuple(reversed(sites))


def test_build_weighted_path(capsys):
    code, out, err = run(capsys, "build", "weighted-path", "--n", "4")
    assert code == 0
    g = load_graph(out)
    assert np.array_equal(g.adjacency, weighted_path(4).adjacency)
    assert err == ""


def test_build_path_and_hypercube(capsys):
    code, out, _ = run(capsys, "build", "path", "--n", "3")
    assert code == 0
    assert load_graph(out).adjacency[0, 1] == 1.0
    code, out, _ = run(capsys, "build", "hypercube", "--n", "3")
    assert code == 0
    assert load_graph(out).n == 8


def test_build_power_legend(capsys):
    code, out, err = run(capsys, "build", "symmetric-power", "--n", "4", "--k", "2")
    assert code == 0
    assert load_graph(out).n == 6
    lines = err.strip().splitlines()
    assert lines[0].startswith("# vertex labels")
    assert "# 1: (1,2)" in lines
    assert "# 6: (3,4)" in lines


def test_build_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "build", "weighted-path", "--n", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert load_graph(target.read_text()).n == 5


def test_build_cartesian_power_legend(capsys):
    # the legend lists every label of the power, repeats included, in index order
    code, out, err = run(capsys, "build", "cartesian-power", "--n", "3", "--k", "2")
    assert code == 0
    g = load_graph(out)
    assert g.n == 9
    assert g.adjacency[0, 1] == math.sqrt(2.0)  # (1,1) to (1,2): the second walker hops
    lines = err.strip().splitlines()
    assert lines[0] == "# vertex labels for cartesian-power (n=3, k=2)"
    assert lines[1:] == [f"# {3 * (a - 1) + b}: ({a},{b})" for a in (1, 2, 3) for b in (1, 2, 3)]


@pytest.mark.parametrize("kind", ["cartesian-power", "symmetric-power"])
def test_build_legend_matches_the_label_by_label_text(capsys, kind):
    # oracle: one label_of_index call, or one ascending label, per printed line
    n, k = 4, 3
    code, _, err = run(capsys, "build", kind, "--n", str(n), "--k", str(k))
    assert code == 0
    if kind == "cartesian-power":
        labels = [label_of_index(i, n, k) for i in range(n**k)]
    else:
        labels = ascending_labels(n, k)
    expected = f"# vertex labels for {kind} (n={n}, k={k})\n"
    expected += "".join(f"# {vid}: ({','.join(map(str, sites))})\n" for vid, sites in enumerate(labels, start=1))
    assert err == expected


def test_build_k_usage(capsys):
    code, _, err = run(capsys, "build", "weighted-path", "--n", "4", "--k", "2")
    assert code == 2
    code, _, err = run(capsys, "build", "cartesian-power", "--n", "4")
    assert code == 2


def test_spectrum(tmp_path, capsys):
    path = write_graph(tmp_path, weighted_path(4))
    code, out, _ = run(capsys, "spectrum", "--in", path)
    assert code == 0
    vals = json.loads(out)
    assert vals == pytest.approx([-3.0, -1.0, 1.0, 3.0], abs=1e-9)


def test_pst_at_half_pi(tmp_path, capsys):
    path = write_graph(tmp_path, weighted_path(4))
    code, out, _ = run(capsys, "pst", "--in", path, "--t", "pi/2")
    assert code == 0
    doc = json.loads(out)
    assert [(d["u"], d["v"]) for d in doc] == [[1, 4], [2, 3]] or [
        (d["u"], d["v"]) for d in doc
    ] == [(1, 4), (2, 3)]
    for d in doc:
        assert d["phase"][0] == pytest.approx(0.0, abs=1e-12)
        assert d["phase"][1] == pytest.approx(1.0, abs=1e-12)


def test_pst_empty_cases(tmp_path, capsys):
    path = write_graph(tmp_path, weighted_path(4))
    code, out, _ = run(capsys, "pst", "--in", path, "--t", "pi")
    assert code == 0 and json.loads(out) == []
    code, out, _ = run(capsys, "pst", "--in", path, "--t", "0.0")
    assert code == 0 and json.loads(out) == []


def test_time_parsing_forms(tmp_path, capsys):
    path = write_graph(tmp_path, weighted_path(4))
    for spec in ("pi/2", "0.5*pi", str(math.pi / 2.0)):
        code, out, _ = run(capsys, "pst", "--in", path, "--t", spec)
        assert code == 0
        assert len(json.loads(out)) == 2, spec
    code, _, err = run(capsys, "pst", "--in", path, "--t", "two*pi")
    assert code == 2
    code, out, err = run(capsys, "pst", "--in", path, "--t", "pi/0")
    assert code == 2 and out == ""
    code, out, err = run(capsys, "pst", "--in", path, "--t", "nan")
    assert code == 2 and out == ""
    assert err == "error: time must be finite, got nan\n"


def test_periodic(tmp_path, capsys):
    path = write_graph(tmp_path, weighted_path(5))
    code, out, _ = run(capsys, "periodic", "--in", path, "--t", "pi")
    assert code == 0
    doc = json.loads(out)
    assert doc["periodic"] is True
    assert doc["phase"] == [1, 0] or doc["phase"] == pytest.approx([1.0, 0.0], abs=1e-12)
    code, out, _ = run(capsys, "periodic", "--in", path, "--t", "pi/3")
    doc = json.loads(out)
    assert doc == {"periodic": False, "phase": None}


def test_quotient_hypercube(tmp_path, capsys):
    from pstlab import hypercube

    gpath = write_graph(tmp_path, hypercube(3))
    ppath = write_partition(tmp_path, hamming_partition(3))
    code, out, _ = run(capsys, "quotient", "--in", gpath, "--partition", ppath)
    assert code == 0
    doc = json.loads(out)
    assert doc["equitable"] is True
    assert doc["max_spread"] <= 1e-10
    quot = load_graph(json.dumps(doc["quotient"]))
    assert np.abs(quot.adjacency - weighted_path(4).adjacency).max() <= 1e-12


def test_quotient_out_file(tmp_path, capsys):
    from pstlab import hypercube

    gpath = write_graph(tmp_path, hypercube(3))
    ppath = write_partition(tmp_path, hamming_partition(3))
    target = tmp_path / "quot.json"
    code, out, _ = run(capsys, "quotient", "--in", gpath, "--partition", ppath, "--out", str(target))
    assert code == 0
    doc = json.loads(out)
    assert doc["written_to"] == str(target)
    assert "quotient" not in doc
    assert load_graph(target.read_text()).n == 4


def test_quotient_not_equitable(tmp_path, capsys):
    from pstlab import Partition

    gpath = write_graph(tmp_path, weighted_path(4))
    ppath = write_partition(tmp_path, Partition(4, ((1, 2), (3, 4))))
    code, out, err = run(capsys, "quotient", "--in", gpath, "--partition", ppath)
    assert code == 1
    assert out == ""
    assert "not equitable" in err
    assert "cell" in err


@pytest.mark.parametrize("weight", ["1.3407807929942597e+154", "1.7976931348623157e+308"])
def test_quotient_by_singletons_of_weights_whose_squares_overflow(tmp_path, capsys, weight):
    # 2**512 and the largest float square past the float range; a singleton partition is
    # equitable whatever the weights, and the quotient is the graph itself
    graph = tmp_path / "g.json"
    graph.write_text(f'{{"n": 2, "edges": [[1, 2, {weight}], [1, 1, 1.0]]}}')
    part = tmp_path / "p.json"
    part.write_text('{"n": 2, "cells": [[1], [2]]}')
    code, out, err = run(capsys, "quotient", "--in", str(graph), "--partition", str(part))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["equitable"] is True and doc["max_spread"] == 0.0
    assert doc["quotient"]["edges"] == [[1, 1, 1.0], [1, 2, float(weight)]]


@pytest.mark.parametrize(
    "cells", ["[[1], [2], [3]]", "[[1, 3], [2]]"], ids=["singletons", "ends-and-middle"]
)
def test_quotient_past_the_float_range_is_one_error_line(tmp_path, capsys, cells):
    # both files are well formed; the middle vertex's weight, sqrt(2) times the float
    # maximum, puts a connection strength toward it past the float range
    graph = tmp_path / "g.json"
    graph.write_text('{"n": 3, "edges": [[1, 2, 1.7976931348623157e308], [2, 3, 1.7976931348623157e308]]}')
    part = tmp_path / "p.json"
    part.write_text(f'{{"n": 3, "cells": {cells}}}')
    code, out, err = run(capsys, "quotient", "--in", str(graph), "--partition", str(part))
    assert (code, out, err) == (2, "", "error: a connection strength overflows a float\n")


def test_malformed_graph_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3,\n  "edges": [[1, 2]]}')
    code, _, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 3
    assert err != ""
    path.write_text('{"n": 2,\n "edges"')
    code, _, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 3
    assert "line" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "edges": {}}',
        '{"n": 2, "edges": [[1.5, 2, 1.0]]}',
        # JSON reads 1e400 as an infinite float
        '{"n": 2, "edges": [[1, 2, 1e400]]}',
    ],
    ids=["edges-not-a-list", "fractional-endpoint", "weight-overflows-to-inf"],
)
def test_invalid_graph_fields_exit_three(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_partition_document_not_an_object_exits_three(tmp_path, capsys):
    from pstlab import hypercube

    gpath = write_graph(tmp_path, hypercube(2))
    part = tmp_path / "p.json"
    part.write_text("[]")
    code, out, err = run(capsys, "quotient", "--in", gpath, "--partition", str(part))
    assert code == 3
    assert out == ""
    assert err == "error: partition document must be a JSON object\n"


def test_asymmetric_graph_file(tmp_path, capsys):
    path = tmp_path / "asym.json"
    path.write_text('{"n": 2, "edges": [[1, 2, 1.0], [2, 1, 2.0]]}')
    code, _, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 3


def test_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "spectrum", "--in", str(tmp_path / "nope.json"))
    assert code == 3
    assert err != ""


def _assert_cannot_write(code, err, target):
    # a precondition error: exit 2 and one error line, not a traceback
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {target}: ")


def test_verify_unwritable_out(tmp_path, capsys, monkeypatch):
    # the target is checked before the first case runs, so no table is printed
    import pstlab.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(pstlab.cli, "sweep", refuse)
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--n", "4", "--k", "2", "--out", str(target))
    assert out == ""
    _assert_cannot_write(code, err, target)


def test_verify_out_replaces_an_existing_report(tmp_path, capsys):
    # the early check appends nothing; the final write replaces the old text
    target = tmp_path / "report.json"
    target.write_text("stale text that is not JSON\n")
    code, _, _ = run(capsys, "verify", "--n", "4", "--k", "2", "--out", str(target))
    assert code == 0
    assert [r["case"]["n"] for r in json.loads(target.read_text())] == [4]


@pytest.mark.parametrize(
    ("n_range", "code"),
    [("2..20000", 4), ("0..3", 2)],
    ids=["past-the-cap", "below-n-2"],
)
def test_verify_refused_range_leaves_out_untouched(tmp_path, capsys, n_range, code):
    # the ranges are refused before --out is opened: no file is made, none is emptied
    missing, existing = tmp_path / "missing.json", tmp_path / "existing.json"
    existing.write_text("an earlier report\n")
    for target in (missing, existing):
        got, out, err = run(capsys, "verify", "--n", n_range, "--k", "1", "--out", str(target))
        assert got == code
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not missing.exists()
    assert existing.read_text() == "an earlier report\n"


def test_build_unwritable_out(tmp_path, capsys):
    target = tmp_path / "missing" / "g.json"
    code, out, err = run(capsys, "build", "path", "--n", "3", "--out", str(target))
    assert out == ""
    _assert_cannot_write(code, err, target)


def test_quotient_unwritable_out(tmp_path, capsys):
    from pstlab import hypercube

    gpath = write_graph(tmp_path, hypercube(3))
    ppath = write_partition(tmp_path, hamming_partition(3))
    target = tmp_path / "missing" / "quot.json"
    code, out, err = run(capsys, "quotient", "--in", gpath, "--partition", ppath, "--out", str(target))
    assert out == ""
    _assert_cannot_write(code, err, target)


def test_spectrum_past_the_float_range_is_one_error_line(tmp_path, capsys):
    # the triangle's top eigenvalue, 3e308, is no float
    path = write_graph(tmp_path, graph_from_edges(3, [(1, 2, 1e308), (2, 3, 1e308), (1, 3, 1e308)]))
    code, out, err = run(capsys, "spectrum", "--in", path)
    assert (code, out, err) == (1, "", "error: eigenvalues overflow a float\n")


@pytest.mark.parametrize(
    "argv", [["pst", "--t", "pi/2"], ["periodic", "--t", "pi"], ["probe", "--k", "1"]], ids=lambda a: a[0]
)
def test_times_past_the_float_range_are_one_error_line(tmp_path, capsys, argv):
    # the eigenvalues +-1.8e308 are floats, but pi / 2 times them is not
    path = write_graph(tmp_path, graph_from_edges(2, [(1, 2, 1.7976931348623157e308)]))
    code, out, err = run(capsys, argv[0], "--in", path, *argv[1:])
    assert (code, out, err) == (2, "", "error: a time times an eigenvalue overflows a float\n")


def test_non_utf8_graph_file(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"n": 2, "edges": []}'.encode("utf-16-le"))
    code, out, err = run(capsys, "spectrum", "--in", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


def test_non_utf8_partition_file(tmp_path, capsys):
    from pstlab import hypercube

    gpath = write_graph(tmp_path, hypercube(3))
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"n": 8, "cells": []}'.encode("utf-16-le"))
    code, out, err = run(capsys, "quotient", "--in", gpath, "--partition", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "verify", "--n", "8..4", "--k", "2")
    assert code == 2
    code, out, _ = run(capsys, "verify", "--n", "a..b", "--k", "2")
    assert code == 2 and out == ""
    code, _, _ = run(capsys, "build", "torus", "--n", "4")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "build" in out and "verify" in out


def test_cap_exit_code(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "build", "hypercube", "--n", "15")
    assert code == 4
    assert err != ""
    monkeypatch.setenv("PSTLAB_CAP", "8")
    code, _, _ = run(capsys, "build", "hypercube", "--n", "4")
    assert code == 4
    monkeypatch.delenv("PSTLAB_CAP")


@pytest.mark.parametrize("kind,builder,what", [("path", simple_path, "path"), ("weighted-path", weighted_path, "weighted path")])
def test_build_path_obeys_the_size_cap(capsys, kind, builder, what):
    # past the default cap the build is refused, where spectrum would refuse its document
    assert run(capsys, "build", kind, "--n", "16385") == (4, "", f"error: {what} has 16385 vertices, cap is 16384\n")
    code, out, err = run(capsys, "build", kind, "--n", "16384")
    assert (code, err) == (0, "")
    assert load_graph(out)._weights.tobytes() == builder(16384)._weights.tobytes()


def test_probe_applies_one_cap_to_the_document_and_the_walkers(tmp_path, capsys, monkeypatch):
    path = write_graph(tmp_path, simple_path(20))
    monkeypatch.setenv("PSTLAB_CAP", "1000")
    code, _, err = run(capsys, "probe", "--in", path, "--k", "1")
    assert (code, err) == (0, "")
    monkeypatch.setenv("PSTLAB_CAP", "10")
    assert run(capsys, "probe", "--in", path, "--k", "1") == (
        4, "", "error: graph document has 20 vertices, cap is 10\n"
    )
    # the cap is not a command-line option, so no flag can raise it for one input only
    code, out, _ = run(capsys, "probe", "--in", path, "--k", "1", "--cap", "1000")
    assert (code, out) == (2, "")
    # the 20-vertex document fits a cap of 100, its C(20, 2) = 190 walker labels do not
    monkeypatch.setenv("PSTLAB_CAP", "100")
    assert run(capsys, "probe", "--in", path, "--k", "2") == (
        4, "", "error: symmetric power has 190 vertices, cap is 100\n"
    )


def test_main_builds_the_parser_once(capsys):
    import pstlab.cli

    pstlab.cli.build_parser.cache_clear()
    run(capsys, "build", "path", "--n", "3")
    run(capsys, "verify", "--n", "3", "--k", "1")
    assert pstlab.cli.build_parser.cache_info().misses == 1


def run_traced(capsys, *argv):
    """``run`` plus the peak traced allocation of the call, in MiB."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_oversized_graph_document_refused(tmp_path, capsys, monkeypatch):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 10000000, "edges": []}')
    (code, _, err), peak = run_traced(capsys, "spectrum", "--in", str(path))
    assert code == 4 and "cap" in err
    assert peak < 8.0
    # the environment cap applies too; a 2000-vertex adjacency would be 32 MiB
    monkeypatch.setenv("PSTLAB_CAP", "100")
    path.write_text('{"n": 2000, "edges": []}')
    (code, _, err), peak = run_traced(capsys, "spectrum", "--in", str(path))
    assert code == 4 and "cap" in err
    assert peak < 8.0


def test_oversized_partition_document_refused(tmp_path, capsys):
    graph = write_graph(tmp_path, weighted_path(4))
    part = tmp_path / "huge_p.json"
    part.write_text('{"n": 1000000, "cells": [[1]]}')
    (code, _, err), peak = run_traced(
        capsys, "quotient", "--in", graph, "--partition", str(part)
    )
    assert code == 4 and "cap" in err
    assert peak < 8.0


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["family", "n", "k", "status", "checks", "worst"]
    assert "pass" in lines[1]
    assert "13/13" in lines[1]


def test_verify_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--n", "4..5", "--k", "2..2", "--out", str(target)
    )
    assert code == 0
    docs = json.loads(target.read_text())
    assert [d["case"]["n"] for d in docs] == [4, 5]
    for doc in docs:
        assert all(c["pass"] for c in doc["checks"])


def test_verify_oversized_n_refused(capsys, monkeypatch):
    # every case at n has at least n vertices, so the range is refused before any case runs
    monkeypatch.setenv("PSTLAB_CAP", "100")
    (code, out, err), peak = run_traced(capsys, "verify", "--n", "3000", "--k", "2")
    assert code == 4 and "cap" in err
    assert out == ""
    assert peak < 8.0
    (code, _, err), peak = run_traced(capsys, "verify", "--n", "4..2000", "--k", "1")
    assert code == 4 and "cap" in err
    assert peak < 8.0


def test_verify_domain(capsys):
    # full occupation (k = n) is skipped, not reported as a failure
    code, out, _ = run(capsys, "verify", "--n", "3..4", "--k", "3..4")
    assert code == 0
    rows = [line.split()[:4] for line in out.strip().splitlines()[1:]]
    assert rows == [["hc-path", "4", "3", "pass"]]
    for argv in (["--n", "4", "--k", "0"], ["--n", "1", "--k", "1"], ["--n", "1..4", "--k", "1"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == "" and "verify needs" in err


def test_quotient_checks_equitability_once(tmp_path, capsys, monkeypatch):
    import pstlab.cli
    import pstlab.partition
    from pstlab import hypercube

    real = pstlab.partition.check_equitable
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return real(*args, **kwargs)

    monkeypatch.setattr(pstlab.partition, "check_equitable", counting)
    monkeypatch.setattr(pstlab.cli, "check_equitable", counting)
    gpath = write_graph(tmp_path, hypercube(3))
    ppath = write_partition(tmp_path, hamming_partition(3))
    code, _, _ = run(capsys, "quotient", "--in", gpath, "--partition", ppath)
    assert code == 0
    assert calls == [8]


def test_not_equitable_error_exits_one(capsys, monkeypatch):
    # NotEquitableError takes the generic package-error exit: code 1, message on stderr
    import pstlab.cli
    from pstlab import NotEquitableError

    def refuse(args):
        raise NotEquitableError("cell 2 spreads b")

    monkeypatch.setattr(pstlab.cli, "cmd_spectrum", refuse)
    code, out, err = run(capsys, "spectrum", "--in", "unused.json")
    assert code == 1
    assert out == ""
    assert err == "error: cell 2 spreads b\n"


def test_verify_error_case_fails(capsys, monkeypatch):
    monkeypatch.setenv("PSTLAB_CAP", "10")
    code, out, _ = run(capsys, "verify", "--n", "6", "--k", "3")
    assert code == 1
    assert "FAIL" in out


def test_probe(tmp_path, capsys):
    path = write_graph(tmp_path, weighted_path(5))
    code, out, _ = run(capsys, "probe", "--in", path, "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["achieves_transfer"] is True
    assert doc["best_modulus"] >= 1.0 - 1e-9
    # the 10 labels make 45 pairs; the mirror pairs reach the bound and all are scanned
    assert doc["pairs_total"] == 45
    assert 1 <= doc["pairs_scanned"] <= 45


@pytest.mark.parametrize(
    "doc, k, pairs",
    [('{"n": 3, "edges": []}', 1, 3), ('{"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]]}', 3, 0)],
    ids=["no-edges", "one-label"],
)
def test_probe_without_a_positive_amplitude_names_no_pair(tmp_path, capsys, doc, k, pairs):
    path = tmp_path / "g.json"
    path.write_text(doc)
    code, out, _ = run(capsys, "probe", "--in", str(path), "--k", str(k))
    assert code == 0
    report = json.loads(out)
    assert (report["best_modulus"], report["best_time"]) == (0.0, 0.0)
    assert report["best_source"] == report["best_target"] == []
    assert report["pairs_total"] == pairs


def test_single_range_form(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--k", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize(
    "graph_doc, partition_doc",
    [
        # a weight past the float range, written as an integer
        ('{"n": 2, "edges": [[1, 2, 1' + "0" * 400 + "]]}", None),
        # an integer token past Python's digit limit for int()
        ('{"n": 2, "edges": [[1, 2, 1' + "0" * 5000 + "]]}", None),
        ('{"n": 2, "edges": [[1, 2, 1.0]]}', '{"n": 2, "cells": [[1' + "0" * 5000 + "], [2]]}"),
    ],
    ids=["graph-weight-past-float-range", "graph-int-past-digit-limit", "partition-int-past-digit-limit"],
)
def test_oversized_integer_tokens_exit_three(tmp_path, capsys, graph_doc, partition_doc):
    graph = tmp_path / "g.json"
    graph.write_text(graph_doc)
    argv = ["spectrum", "--in", str(graph)]
    if partition_doc is not None:
        part = tmp_path / "p.json"
        part.write_text(partition_doc)
        argv = ["quotient", "--in", str(graph), "--partition", str(part)]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _to_json(obj) -> str:
    """The JSON writer the CLI used before it printed ``json.dumps`` text, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, dict):
        items = ", ".join(f"{_to_json(str(key))}: {_to_json(val)}" for key, val in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(x) for x in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def same_numbers(a, b, signed_zeros=True):
    """True when two JSON values have one shape and every number the same ``float.hex``.

    Without ``signed_zeros``, -0.0 and 0.0 count as the same number.
    """
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and list(a) == list(b)
            and all(same_numbers(a[key], b[key], signed_zeros) for key in a)
        )
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(same_numbers(x, y, signed_zeros) for x, y in zip(a, b))
        )
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        if isinstance(b, bool) or not isinstance(b, (int, float)):
            return False
        x, y = float(a), float(b)
        return x.hex() == y.hex() or (not signed_zeros and x == y == 0.0)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("command", ["verify", "probe", "pst", "periodic", "spectrum", "quotient"])
def test_json_output_reads_back_as_the_17_digit_writer(tmp_path, capsys, monkeypatch, command):
    from pstlab import hypercube

    ring, path = write_graph(tmp_path, seeded_ring(8, 5), "ring.json"), write_graph(tmp_path, weighted_path(6))
    report = tmp_path / "report.json"
    argv = {
        "verify": ["verify", "--n", "2..7", "--k", "1..4", "--out", str(report)],
        "probe": ["probe", "--in", ring, "--k", "2"],
        "pst": ["pst", "--in", path, "--t", "pi/2"],
        "periodic": ["periodic", "--in", path, "--t", "pi"],
        "spectrum": ["spectrum", "--in", ring],
        "quotient": [
            "quotient", "--in", write_graph(tmp_path, hypercube(3), "q3.json"),
            "--partition", write_partition(tmp_path, hamming_partition(3)),
        ],
    }[command]
    # the object each command serializes, as the last json.dumps call sees it
    written, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kwargs: written.append(obj) or dumps(obj, **kwargs))
    code, out, err = run(capsys, *argv)
    monkeypatch.undo()
    assert (code, err) == (0, "")
    text = report.read_text() if command == "verify" else out
    assert text.strip() == dumps(written[-1])
    doc = json.loads(text)
    # every number reads back bit for bit, signed zeros included
    assert same_numbers(doc, written[-1])
    # and as from the 17-digit text, where -0.0 printed as "-0" and read back as the integer 0
    assert same_numbers(doc, json.loads(_to_json(written[-1])), signed_zeros=False)


def test_plain_text_floats_print_their_repr(tmp_path, capsys):
    from pstlab import Partition, check_equitable, run_case

    code, out, _ = run(capsys, "verify", "--n", "5", "--k", "2")
    assert code == 0
    top = max(run_case(5, 2).checks, key=lambda c: c.value / c.tol)
    assert out.splitlines()[1].split()[-1] == f"{top.name}={float(top.value)!r}"
    part = Partition(4, ((1, 2), (3, 4)))
    spread = check_equitable(weighted_path(4), part).max_spread
    gpath, ppath = write_graph(tmp_path, weighted_path(4)), write_partition(tmp_path, part)
    code, _, err = run(capsys, "quotient", "--in", gpath, "--partition", ppath)
    assert code == 1
    assert err.startswith(f"not equitable: worst spread {spread!r} at cell ")


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.data())
def test_fuzzed_documents_exit_with_a_documented_code(n, data):
    # every input ends in exit 0-4; any other exit prints one diagnostic line, never a traceback.
    # n = 7 is past the cap of 6 below; the partition mostly has the graph's n.
    graph = data.draw(graph_documents(st.just(n), st.floats(-1e300, 1e300)))
    partition = data.draw(partition_documents(st.just(n) | st.integers(1, 7)) | st.text(max_size=12))
    k = data.draw(st.integers(1, 3))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"PSTLAB_CAP": "6"}):
        gpath, ppath = os.path.join(tmp, "g.json"), os.path.join(tmp, "p.json")
        for path, text in ((gpath, graph), (ppath, partition)):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        for argv in (
            ["spectrum", "--in", gpath],
            ["quotient", "--in", gpath, "--partition", ppath],
            ["pst", "--in", gpath, "--t", "pi/2"],
            ["periodic", "--in", gpath, "--t", "pi"],
            ["probe", "--in", gpath, "--k", str(k)],
        ):
            code, _, err = _main_quietly(argv)
            assert code in (0, 1, 2, 3, 4), (argv, code, err)
            if code == 0:
                assert err == ""
                continue
            # exit 1 from quotient is its verdict on the partition, not an error
            verdict = "not equitable: " if code == 1 and argv[0] == "quotient" else "error: "
            assert len(err.splitlines()) == 1 and err.startswith(verdict), (argv, code, err)
