"""Command line front end.

Exit codes are a stable contract: 0 success / all checks pass,
1 usage, I/O or precondition errors, 2 a verification or oracle check
that actually failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from . import __version__, catalog, oracle
from .fock import SparseOp, build_basis, combine_runs, export_sparse, left_map, right_map
from .graphs import (
    Graph,
    GraphError,
    PropertyReport,
    classify_finite,
    double_cycle_witnesses,
    parse_graph,
    to_dot,
)
from .pairs import MODES, PairConstructionError, construct_pair, pair_from_json, verify_materialized
from .paths import path_from_literal, unit

USAGE_ERROR = 1
CHECK_FAILED = 2

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class _Source:
    """A resolved graph argument: a file, a finite entry, or a family."""

    def __init__(self, label: str, graph: Optional[Graph], entry=None):
        self.label = label
        self.graph = graph
        self.entry = entry

    @property
    def is_family(self) -> bool:
        return self.entry is not None and self.entry.kind != "finite"


def _resolve(label: str, window: Optional[int] = None) -> _Source:
    if os.path.exists(label):
        with open(label, "r", encoding="utf-8") as fh:
            return _Source(label, parse_graph(fh.read()))
    try:
        entry = catalog.builtin(label)
    except catalog.UnknownEntryError:
        raise GraphError(f"{label!r} is neither a readable file nor a catalog entry") from None
    if entry.kind == "finite":
        return _Source(entry.name, entry.graph, entry)
    if entry.truncate is None:
        return _Source(entry.name, None, entry)
    k = window if window is not None else entry.default_window
    return _Source(entry.name, entry.truncate(k), entry)


def _cycle_literal(cycle) -> str:
    """The path literal of a first-return cycle's edge word."""
    return ".".join(reversed(cycle.word))


def _witness_json(report: PropertyReport) -> dict:
    out: dict = {}
    if report.double_cycle_witness is not None:
        w = report.double_cycle_witness
        out["double_cycle"] = {
            "base": w.base,
            "w1": _cycle_literal(w.first),
            "w2": _cycle_literal(w.second),
        }
    witness = report.aperiodic_witness
    if witness is not None and not hasattr(witness, "first"):
        out["infinite_path"] = {"family": witness.family, "rule": witness.rule}
    return out


def _report_json(source: _Source, report: PropertyReport) -> str:
    payload = {
        "version": __version__,
        "graph": source.label,
        "properties": report.flags(),
        "witnesses": _witness_json(report),
        "warnings": list(report.warnings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _report_text(source: _Source, report: PropertyReport) -> str:
    def yn(v: bool) -> str:
        return "yes" if v else "no"

    lines = [f"graph: {source.label}"]
    if source.graph is not None:
        lines[0] += f" ({len(source.graph.vertices)} vertices, {len(source.graph.edges)} edges)"
    rows = [
        ("double-cycle property", report.has_double_cycle),
        ("uniform double-cycle property", report.uniform_double_cycle),
        ("aperiodic path property", report.aperiodic_path),
        ("uniform aperiodic path property", report.uniform_aperiodic_path),
        ("L_G partly free", report.lg_partly_free),
        ("L_G unitally partly free", report.lg_unitally_partly_free),
        ("A_G partly free", report.ag_partly_free),
        ("A_G unitally partly free", report.ag_unitally_partly_free),
        ("hyper-reflexive (transpose test)", report.hyperreflexive_sufficient),
        ("finitely many vertices", report.vertex_count_finite),
    ]
    width = max(len(label) for label, _ in rows) + 2
    lines += [f"{label:<{width}}{yn(value)}" for label, value in rows]
    w = report.double_cycle_witness
    if w is not None:
        w1, w2 = _cycle_literal(w.first), _cycle_literal(w.second)
        lines.append(f"double-cycle witness at {w.base}: w1 = {w1}, w2 = {w2}")
    witness = report.aperiodic_witness
    if witness is not None and not hasattr(witness, "first"):
        lines.append(f"infinite path certificate: {witness.rule}")
    for msg in report.warnings:
        lines.append(f"warning: {msg}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    source = _resolve(args.graph, args.window)
    if source.is_family:
        report = catalog.classify_family(source.entry.name)
    else:
        report = classify_finite(source.graph)
    if args.dot:
        if source.graph is None:
            print("no finite window available for DOT export", file=sys.stderr)
            return USAGE_ERROR
        print(to_dot(source.graph), end="")
        return 0
    print(_report_json(source, report) if args.json else _report_text(source, report))
    return 0


def _cmd_verify(args) -> int:
    source = _resolve(args.graph, args.window)
    if source.graph is None:
        print(f"{source.label} has no finite window to verify on", file=sys.stderr)
        return USAGE_ERROR
    if args.pair is not None:
        with open(args.pair, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
                raise PairConstructionError(f"malformed pair file: {exc}") from None
        pair = pair_from_json(source.graph, obj)
    else:
        pair = construct_pair(source.graph, args.mode)
    basis = build_basis(source.graph, args.depth, cap=args.cap)
    report = verify_materialized(pair, basis)
    print(f"graph: {source.label}   mode: {pair.mode}   dim: {basis.dim}")
    for line in report.lines():
        print(line)
    if report.passed:
        print("verification PASSED")
        return 0
    print("verification FAILED")
    return CHECK_FAILED


def _cmd_construct(args) -> int:
    source = _resolve(args.graph, args.window)
    if source.graph is None:
        print(f"{source.label} has no finite window", file=sys.stderr)
        return USAGE_ERROR
    pair = construct_pair(source.graph, args.mode)
    sys.stdout.writelines(pair.iter_json())
    print()
    return 0


def _cmd_oracle(args) -> int:
    if args.graph is not None:
        source = _resolve(args.graph, None)
        if source.graph is None:
            print(f"{source.label} has no finite window", file=sys.stderr)
            return USAGE_ERROR
        fast = bool(double_cycle_witnesses(source.graph))
        slow = oracle.has_double_cycle_bruteforce(source.graph)
        print(f"scc decision: {fast}   simple-cycle oracle: {slow}")
        if fast != slow:
            print("DISAGREEMENT", file=sys.stderr)
            return CHECK_FAILED
        return 0
    report = oracle.agreement_run(
        args.random, args.seed, max_vertices=args.max_vertices, max_edges=args.max_edges
    )
    print(f"checked {report.graphs_checked} random graphs (seed {args.seed})")
    for d in report.disagreements:
        print(d, file=sys.stderr)
    if not report.agreed:
        return CHECK_FAILED
    print("decision procedures agree")
    return 0


def _parse_op_expression(basis, text: str) -> SparseOp:
    """Sum of terms ``[q*]L:word``, ``[q*]R:word``, ``[q*]P:vertex``;
    rationals like 3, -2/5.  Words use the path literal syntax.  Each term
    is a 0/1 map, and :func:`fock.combine_runs` adds them up."""
    terms = []
    g = basis.graph
    for raw_term in text.split("+"):
        term = raw_term.strip()
        if not term:
            raise GraphError("empty term in operator expression")
        scalar = Fraction(1)
        if "*" in term:
            coeff, term = term.split("*", 1)
            coeff = coeff.strip()
            try:
                # Fraction alone would also take "1e999999999" and build that power of ten
                if not _RATIONAL.fullmatch(coeff):
                    raise ValueError
                scalar = Fraction(coeff)
            except (ValueError, ZeroDivisionError):
                raise GraphError(f"bad rational coefficient {coeff!r}") from None
            term = term.strip()
        if ":" not in term:
            raise GraphError(f"bad operator term {raw_term.strip()!r}")
        kind, lit = term.split(":", 1)
        kind = kind.strip()
        lit = lit.strip()
        if kind == "L":
            run = left_map(basis, path_from_literal(g, lit))
        elif kind == "R":
            run = right_map(basis, path_from_literal(g, lit))
        elif kind == "P":
            run = left_map(basis, unit(g, lit))
        else:
            raise GraphError(f"unknown operator kind {kind!r} (use L, R or P)")
        terms.append((scalar, run))
    return combine_runs(basis, terms)


def _cmd_fock(args) -> int:
    source = _resolve(args.graph, args.window)
    if source.graph is None:
        print(f"{source.label} has no finite window", file=sys.stderr)
        return USAGE_ERROR
    basis = build_basis(source.graph, args.depth, cap=args.cap)
    op = _parse_op_expression(basis, args.op)
    print(export_sparse(op), end="")
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.catalog_names():
            entry = catalog.builtin(name)
            print(f"{name:<18} {entry.kind:<9} {entry.notes}")
        return 0
    result = catalog.check_entry(args.name, args.depth)
    print(f"catalog entry {result.name}")
    for line in result.lines():
        print(line)
    return 0 if result.passed else CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with ``USAGE_ERROR``; argparse's own code, 2, is
    the one for a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.  Reusing it
    is safe: ``parse_args`` keeps no state on the parser, and the help width
    and the streams are looked up each time output is written."""
    parser = _Parser(
        prog="partlyfree",
        description="Decide partly-freeness of graph operator algebras and "
        "verify the witnessing isometry pairs exactly.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--depth", type=int, default=6, help="Fock truncation depth N")
        p.add_argument("--cap", type=int, default=2_000_000, help="basis dimension cap")
        p.add_argument("--window", type=int, default=None, help="family window override K")

    p = sub.add_parser("analyze", help="classify a graph file or catalog entry")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of the report")
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="construct (or load) a pair and verify it exactly")
    p.add_argument("graph")
    p.add_argument("--mode", choices=MODES, default="double-cycle")
    p.add_argument("--pair", default=None, help="verify a pair JSON file instead of constructing")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="emit a pair description as JSON")
    p.add_argument("graph")
    p.add_argument("--mode", choices=MODES, default="double-cycle")
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("oracle", help="cross-check the double-cycle decision")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--random", type=int, default=200, help="number of random graphs")
    p.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    p.add_argument("--max-vertices", type=int, default=8, help="random graph size bound")
    p.add_argument("--max-edges", type=int, default=16, help="random graph edge bound")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fock", help="export an operator as a sparse matrix")
    p.add_argument("graph")
    p.add_argument("--op", required=True, help='e.g. "4*L:e + 1/2*P:x2"')
    add_common(p)
    p.set_defaults(func=_cmd_fock)

    p = sub.add_parser("catalog", help="list or check the built-in examples")
    p.add_argument("action", choices=["list", "check"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=_cmd_catalog)
    return parser


def _join_op_value(argv: list[str]) -> list[str]:
    """``--op VALUE`` as ``--op=VALUE`` when VALUE starts with a negative
    leading coefficient, which argparse would take for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--op" and re.match(r"-\d", arg):
            out[-1] = "--op=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_op_value(sys.argv[1:] if argv is None else argv))
    if args.command == "catalog" and args.action == "check" and args.name is None:
        print("catalog check needs an entry name", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
