"""Command-line front end.

Exit codes: 0 success, 1 verification failure (including non-equitable
quotient requests), 2 usage or precondition error (including an --out file
that cannot be written), 3 input-format error (including an --in or
--partition file that cannot be read or is not UTF-8), 4 resource-cap
refusal. Every JSON output, graph documents (save_graph), reports and the
quotient embedded in stdout alike, is ``json.dumps`` text, so each float is
the shortest repr that reads back bit for bit; the verify table and the
not-equitable line print the same repr. Graph documents go to --out when
given, otherwise to stdout; diagnostics and legends go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import Sequence

import numpy as np

from .errors import (
    DegeneratePartitionError,
    FormatError,
    InvalidSizeError,
    PreconditionError,
    PstlabError,
    ResourceCapError,
)
from .graph_core import (
    WeightedGraph,
    hypercube,
    load_graph,
    save_graph,
    simple_path,
    weighted_path,
)
from .hardcore import _ascending, symmetric_power
from .partition import (
    _quotient_graph,
    check_equitable,
    load_partition,
    normalized_partition_matrix,
)
from .products import _digits, cartesian_power
from .pst_verify import conjecture_probe, sweep
from .spectral import PST_TOL, eigh, find_pst_pairs, is_periodic

_BUILD_KINDS = ("path", "weighted-path", "hypercube", "cartesian-power", "symmetric-power")


def _parse_time(text: str) -> float:
    """Times accept plain decimals and pi expressions like pi, pi/2, 3*pi/4."""
    cleaned = text.strip().lower().replace(" ", "")
    match = re.fullmatch(r"(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?", cleaned)
    if match:
        coefficient = float(match.group(1)) if match.group(1) else 1.0
        divisor = float(match.group(2)) if match.group(2) else 1.0
        if divisor == 0.0:
            raise argparse.ArgumentTypeError("division by zero in time expression")
        return coefficient * math.pi / divisor
    try:
        return float(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse time {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer ranges: "4..8" or a bare "4"."""
    cleaned = text.strip()
    if ".." in cleaned:
        lo_text, _, hi_text = cleaned.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse range {text!r}") from None
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty range {text!r} (low end exceeds high end)")
        return lo, hi
    try:
        value = int(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse range {text!r}") from None
    return value, value


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


def _write_graph(g: WeightedGraph, out: str | None) -> None:
    text = save_graph(g)
    if out is None:
        print(text)
    else:
        _write_text(out, text)


def _load_graph_arg(path: str) -> WeightedGraph:
    return load_graph(_read_text(path))


def cmd_build(args: argparse.Namespace) -> int:
    kind = args.kind
    needs_k = kind in ("cartesian-power", "symmetric-power")
    if needs_k and args.k is None:
        raise PreconditionError(f"build {kind} needs --k")
    if not needs_k and args.k is not None:
        raise PreconditionError(f"build {kind} does not take --k")
    if kind == "path":
        g = simple_path(args.n)
    elif kind == "weighted-path":
        g = weighted_path(args.n)
    elif kind == "hypercube":
        g = hypercube(args.n)
    elif kind == "cartesian-power":
        g = cartesian_power(weighted_path(args.n), args.k)
    else:
        g = symmetric_power(weighted_path(args.n), args.k)
    _write_graph(g, args.out)
    if needs_k:
        _print_legend(kind, args.n, args.k, g.n)
    return 0


def _print_legend(kind: str, n: int, k: int, size: int) -> None:
    """Vertex-to-label legend for power graphs, written to stderr."""
    labels = _digits(np.arange(size), n, k) + 1 if kind == "cartesian-power" else _ascending(n, k) + 1
    lines = [f"# vertex labels for {kind} (n={n}, k={k})"]
    lines += [f"# {vid}: ({','.join(map(str, sites))})" for vid, sites in enumerate(labels.tolist(), start=1)]
    sys.stderr.write("\n".join(lines) + "\n")


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _load_graph_arg(args.infile)
    spec = eigh(g)
    print(json.dumps(spec.eigenvalues.tolist()))
    return 0


def cmd_pst(args: argparse.Namespace) -> int:
    g = _load_graph_arg(args.infile)
    pairs = find_pst_pairs(eigh(g), args.t, args.tol)
    doc = [
        {"u": p.u, "v": p.v, "phase": [p.phase.real, p.phase.imag]}
        for p in pairs
    ]
    print(json.dumps(doc))
    return 0


def cmd_periodic(args: argparse.Namespace) -> int:
    g = _load_graph_arg(args.infile)
    phase = is_periodic(eigh(g), args.t, args.tol)
    doc = {
        "periodic": phase is not None,
        "phase": None if phase is None else [phase.real, phase.imag],
    }
    print(json.dumps(doc))
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    g = _load_graph_arg(args.infile)
    part = load_partition(_read_text(args.partition))
    report = check_equitable(g, part)
    if not report.equitable:
        print(
            f"not equitable: worst spread {report.max_spread!r} at cell "
            f"{report.worst_cell}, vertex {report.worst_vertex}, toward cell "
            f"{report.worst_target_cell}",
            file=sys.stderr,
        )
        return 1
    if not math.isfinite(abs(report.b).max()):
        raise PreconditionError("a connection strength overflows a float")
    quot = _quotient_graph(g, normalized_partition_matrix(g, part))
    doc = {
        "equitable": True,
        "max_spread": report.max_spread,
        "b": report.b.tolist(),
    }
    if args.out is not None:
        _write_graph(quot, args.out)
        doc["written_to"] = args.out
    else:
        doc["quotient"] = json.loads(save_graph(quot))
    print(json.dumps(doc))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    made = False
    if args.out is not None:
        # Appending truncates nothing, so an unwritable target fails before the first case.
        made = not os.path.exists(args.out)
        try:
            with open(args.out, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise PreconditionError(f"cannot write {args.out}: {exc}") from exc
    try:
        reports = sweep(n_range=args.n, k_range=args.k)
    except PstlabError:
        # A refused range leaves --out as it was: the file made above goes again.
        if made:
            os.remove(args.out)
        raise
    header = f"{'family':<10} {'n':>3} {'k':>3} {'status':<6} {'checks':>7} worst"
    print(header)
    all_ok = True
    for report in reports:
        all_ok = all_ok and report.ok
        passed = sum(1 for c in report.checks if c.passed)
        if report.error is not None:
            worst = report.error
        else:
            top = max(report.checks, key=lambda c: c.value / c.tol)
            worst = f"{top.name}={float(top.value)!r}"
        status = "pass" if report.ok else "FAIL"
        print(
            f"{report.family:<10} {report.n:>3} {report.k:>3} {status:<6} "
            f"{passed:>3}/{len(report.checks):<3} {worst}"
        )
    if args.out is not None:
        _write_text(args.out, json.dumps([r.to_dict() for r in reports]))
    return 0 if all_ok else 1


def cmd_probe(args: argparse.Namespace) -> int:
    g = _load_graph_arg(args.infile)
    report = conjecture_probe(g, args.k, pst_time=args.t)
    print(json.dumps(report.to_dict()))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pstlab",
        description="Build walk graphs and verify hard-core walker transfer numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a graph and write its JSON document")
    p_build.add_argument("kind", choices=_BUILD_KINDS)
    p_build.add_argument("--n", type=int, required=True, help="vertex count or hypercube dimension")
    p_build.add_argument("--k", type=int, help="walker count for the power kinds")
    p_build.add_argument("--out", help="output file (default stdout)")

    p_spectrum = sub.add_parser("spectrum", help="print ascending eigenvalues of a graph file")
    p_spectrum.add_argument("--in", dest="infile", required=True, help="graph file")

    p_pst = sub.add_parser("pst", help="list perfect-transfer pairs at a time")
    p_pst.add_argument("--in", dest="infile", required=True, help="graph file")
    p_pst.add_argument("--t", type=_parse_time, required=True, help='time, e.g. 1.57 or "pi/2"')
    p_pst.add_argument("--tol", type=float, default=PST_TOL, help="modulus tolerance (default 1e-9)")

    p_periodic = sub.add_parser("periodic", help="test whether the walk revives at a time")
    p_periodic.add_argument("--in", dest="infile", required=True, help="graph file")
    p_periodic.add_argument("--t", type=_parse_time, required=True, help='time, e.g. "pi"')
    p_periodic.add_argument("--tol", type=float, default=PST_TOL, help="entrywise tolerance (default 1e-9)")

    p_quotient = sub.add_parser("quotient", help="equitable-partition quotient of a graph file")
    p_quotient.add_argument("--in", dest="infile", required=True, help="graph file")
    p_quotient.add_argument("--partition", required=True, help="partition file")
    p_quotient.add_argument("--out", help="quotient graph file (default embedded in stdout JSON)")

    p_verify = sub.add_parser("verify", help="run the verification sweep over (n, k) ranges")
    p_verify.add_argument("--n", type=_parse_range, required=True, help='path sizes n >= 2, e.g. "4..8"')
    p_verify.add_argument(
        "--k", type=_parse_range, required=True, help='walker counts k >= 1, e.g. "2..3"; k >= n is skipped'
    )
    p_verify.add_argument("--out", help="write the JSON report list here")

    p_probe = sub.add_parser("probe", help="exploratory transfer scan for arbitrary graphs")
    p_probe.add_argument("--in", dest="infile", required=True, help="graph file")
    p_probe.add_argument("--k", type=int, required=True, help="walker count")
    p_probe.add_argument("--t", type=_parse_time, help="extra time to scan")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        # Looked up per call, so the cached parser holds no handler.
        return globals()[f"cmd_{args.command}"](args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InvalidSizeError, PreconditionError, DegeneratePartitionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PstlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
