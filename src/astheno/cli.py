"""Command-line front end.

Five subcommands: ``check`` classifies a structure pair, ``table``
reproduces one bundled reference table, ``scan`` sweeps the pure pairs over
a geometry range, ``verify`` runs the full self-audit, and ``eval`` applies
operator chains to ad-hoc expressions.

Exit codes: 0 pass/zero, 1 nonzero/diff, 2 usage (also a result with an
integer too long to print, an ``eval`` chain past ``MAX_WORK`` and a closed
output pipe).  Reports go to stdout, diagnostics to stderr.  Output is
deterministic; ANSI color is opt-in via the environment variable
ASTHENO_COLOR (on/off, default off).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .algebra import MAX_WORK, Form, ProductGeometry, _size
from .audit import DEFAULT_SEED, run_audit
from .calculus import Condition, Convention, d_c, exterior_d, j_action
from .classify import (
    KINDS,
    FactorStructure,
    StructurePair,
    classify,
    reproduce_table,
    scan,
)
from .exprio import ParseError, parse, print_latex, print_text, to_record
from .fixtures import table_ids

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_USAGE = 2

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def _color_on() -> bool:
    return os.environ.get("ASTHENO_COLOR", "off").strip().lower() in {
        "on", "1", "true", "yes",
    }


def _mark(good: bool, text: str) -> str:
    if not _color_on():
        return text
    return f"{_GREEN}{text}{_RESET}" if good else f"{_RED}{text}{_RESET}"


def _render(form: Form, fmt: str) -> str:
    return print_latex(form) if fmt == "latex" else print_text(form)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


# the literals the expression grammar reads: a sign, ASCII digits and, for a
# pin, a /denominator.  int() and Fraction(str) alone also take underscores,
# non-ASCII digits and surrounding spaces, and Fraction decimals and exponents
# (1e10000000 expands for half a minute)
_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _literal(read, what: str):
    """argparse type: a literal of that grammar, read by int or Fraction."""
    def literal(text: str):
        try:
            if _LITERAL.fullmatch(text):
                return read(text)  # int() refuses the /denominator
        except (ValueError, ZeroDivisionError):
            pass  # a literal past the interpreter's digit limit, or a zero denominator
        raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
    return literal


_fraction = _literal(Fraction, "a rational number")
_integer = _literal(int, "an integer")


# Largest accepted half-dimension.  At the cap the Kahler-power binomials
# reach C(4095, 2047), about 1230 digits: well inside Python's 4300-digit
# limit on int-to-str conversion, and an untruncated check still takes seconds.
MAX_HALF_DIM = 2048

# Largest accepted --trials of verify.  A trial costs 0.1-0.3 ms, so the cap
# runs in 4-8 s (Python 3.11 on 2 shared vCPUs of an Intel Xeon).
MAX_TRIALS = 30_000


def _at_most(cap: int):
    """argparse type: an integer in 1..cap."""
    def bounded(text: str) -> int:
        value = _integer(text)
        if not 1 <= value <= cap:
            raise argparse.ArgumentTypeError(f"must be in 1..{cap}, got {value}")
        return value
    return bounded


_half_dim = _at_most(MAX_HALF_DIM)


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("text", "latex", "json"), default="text",
        help="output format (default text)",
    )


def _add_convention(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--convention", choices=("graded", "ungraded"), default="graded",
        help="Leibniz rule used by d (default graded)",
    )


def _geometry_payload(geom: ProductGeometry) -> dict:
    return {
        "m1": geom.m1,
        "m2": geom.m2,
        "m": geom.m,
        "factor_real_dims": [2 * geom.m1 + 1, 2 * geom.m2 + 1],
        "product_real_dim": 2 * geom.m,
        "truncate": geom.truncate,
    }


def _geometry_line(geom: ProductGeometry) -> str:
    return (
        f"geometry: m1={geom.m1}, m2={geom.m2} "
        f"(factor real dims {2 * geom.m1 + 1} and {2 * geom.m2 + 1}, "
        f"product real dim {2 * geom.m}, complex dim {geom.m})"
    )


# ---------------------------------------------------------------------------
# check


def _structure(kind: str, alpha, beta, parser, label: str) -> FactorStructure:
    try:
        return FactorStructure(kind, alpha=alpha, beta=beta)
    except ValueError as exc:
        parser.error(f"{label}: {exc}")


def cmd_check(args, parser) -> int:
    geom = ProductGeometry(args.m1, args.m2, truncate=not args.no_truncate)
    factor1 = _structure(args.factor1, args.alpha1, args.beta1, parser, "factor1")
    factor2 = _structure(args.factor2, args.alpha2, args.beta2, parser, "factor2")
    pair = StructurePair(factor1, factor2)
    report = classify(
        args.condition, geom, pair,
        convention=args.convention, ring_reduce=not args.no_ring_reduce,
    )

    if args.format == "json":
        _emit(
            {
                "command": "check",
                "condition": args.condition,
                "convention": args.convention,
                "ring_reduce": not args.no_ring_reduce,
                "geometry": _geometry_payload(geom),
                "factors": [
                    {"kind": f.kind, "alpha": _frac_str(f.alpha), "beta": _frac_str(f.beta)}
                    for f in (factor1, factor2)
                ],
                "verdict": report.verdict,
                "vanishing_conditions": list(report.conditions),
                "residual": to_record(report.residual),
                "residual_text": print_text(report.residual),
            }
        )
    else:
        # rendered whole before the first write: a residual too long to print
        # must leave stdout empty, as it does under json
        lines = [
            _geometry_line(geom),
            f"condition: {args.condition}   convention: {args.convention}",
            f"factors: {factor1.kind} x {factor2.kind}",
            "verdict: " + _mark(report.vanishes, report.verdict),
        ]
        if report.conditions:
            lines.append("vanishes under: " + "; ".join(report.conditions))
        if not report.residual.is_zero:
            lines.append(f"residual: {_render(report.residual, args.format)}")
        print("\n".join(lines))
    return EXIT_OK if report.vanishes else EXIT_DIFF


def _frac_str(value):
    return None if value is None else str(value)


# ---------------------------------------------------------------------------
# table


def cmd_table(args, parser) -> int:
    if args.id not in table_ids():
        parser.error(f"--id must be in 1..10, got {args.id}")
    report = reproduce_table(args.id, args.convention)

    if args.format == "json":
        rows = []
        for row in report.rows:
            entry = {
                "row": row.row,
                "factor1": row.factor1,
                "factor2": row.factor2,
                "status": row.status,
                "printed_zero": row.printed_zero,
                "engine_zero_truncated": row.engine_zero_truncated,
                "fixture": to_record(row.fixture),
                "engine": to_record(row.engine),
                "engine_truncated": to_record(row.engine_truncated),
                "diff": to_record(row.diff),
            }
            if row.note:
                entry["note"] = row.note
            rows.append(entry)
        _emit(
            {
                "command": "table",
                "table": report.table_id,
                "m1": report.m1,
                "m2": report.m2,
                "power": report.power,
                "convention": report.convention.value,
                "rows": rows,
                "discrepancies": list(report.discrepancies),
                "ok": report.ok,
            }
        )
    else:
        print(
            f"table {report.table_id}: m1={report.m1}, m2={report.m2}, "
            f"d d_c Omega^{report.power}, convention {report.convention.value}"
        )
        for row in report.rows:
            ok = row.status != "discrepancy"
            line = (
                f"row {row.row} ({row.factor1} x {row.factor2}): "
                + _mark(ok, row.status)
            )
            if row.printed_zero:
                line += "  [printed 0]"
            print(line)
            if row.note:
                print(f"  note: {row.note}")
            if not ok:
                print(f"  fixture: {_render(row.fixture, args.format)}")
                print(f"  engine:  {_render(row.engine, args.format)}")
                print(f"  diff:    {_render(row.diff, args.format)}")
        verdictline = (
            "all rows reproduce (exactly or modulo convention/truncation)"
            if report.ok
            else f"discrepant rows: {', '.join(str(r) for r in report.discrepancies)}"
        )
        print(_mark(report.ok, verdictline))
    return EXIT_OK if report.ok else EXIT_DIFF


# ---------------------------------------------------------------------------
# scan


# Largest accepted scan grid in geometries (9 cells each): bounds time and output.
MAX_SCAN_GEOMETRIES = 4096


def _cell_payload(c) -> dict:
    return {"m1": c.m1, "m2": c.m2, "factor1": c.factor1, "factor2": c.factor2,
            "verdict": c.verdict, "vanishing_conditions": list(c.conditions)}


def _emit_scan(payload: dict) -> None:
    """Print what _emit prints for a scan payload whose "cells" are ScanCells.

    A scan has 9 to 36 864 cells but few distinct tails (factors, verdict,
    conditions): each is dumped once and re-indented to cell depth, and the
    rest of the payload is dumped whole around a placeholder string.
    """
    tails: dict = {}
    items = []
    for c in payload["cells"]:
        tail = tails.get(c[2:])
        if tail is None:  # the dumped cell from its "factor1" line on
            tail = json.dumps(_cell_payload(c), indent=2).split("\n", 3)[3]
            tail = tails[c[2:]] = ("\n" + tail).replace("\n", "\n    ")
        items.append(f'\n    {{\n      "m1": {c.m1},\n      "m2": {c.m2},{tail}')
    slot = "cells go here"
    text = json.dumps({**payload, "cells": slot}, indent=2)
    head, _, rest = text.partition(json.dumps(slot))
    print(head + "[" + ",".join(items) + "\n  ]" + rest)


def cmd_scan(args, parser) -> int:
    if args.max_m1 * args.max_m2 > MAX_SCAN_GEOMETRIES:
        parser.error(f"--max-m1 * --max-m2 must be <= {MAX_SCAN_GEOMETRIES}")
    report = scan(
        max_m1=args.max_m1, max_m2=args.max_m2,
        condition=args.condition, convention=args.convention,
        ring_reduce=not args.no_ring_reduce,
    )

    if args.format == "json":
        _emit_scan(
            {
                "command": "scan",
                "condition": report.condition.value,
                "convention": report.convention.value,
                "max_m1": report.max_m1,
                "max_m2": report.max_m2,
                "cells": report.cells,
                "propositions": [
                    {
                        "name": p.name,
                        "statement": p.statement,
                        "holds": p.holds,
                        "counterexamples": [_cell_payload(c) for c in p.counterexamples],
                    }
                    for p in report.propositions
                ],
                "ok": report.ok,
            }
        )
    else:
        print(
            f"scan: condition {report.condition.value}, convention "
            f"{report.convention.value}, m1 <= {report.max_m1}, m2 <= {report.max_m2}"
        )
        current = None
        for cell in report.cells:
            if (cell.m1, cell.m2) != current:
                current = (cell.m1, cell.m2)
                print(f"(m1={cell.m1}, m2={cell.m2})")
            line = f"  {cell.factor1} x {cell.factor2}: {cell.verdict}"
            if cell.conditions:
                line += f"  [{'; '.join(cell.conditions)}]"
            print(line)
        for prop in report.propositions:
            status = _mark(prop.holds, "holds" if prop.holds else "FAILS")
            print(f"proposition {prop.name}: {status}")
            print(f"  {prop.statement}")
            for c in prop.counterexamples:
                print(f"  counterexample: m1={c.m1}, m2={c.m2}, "
                      f"{c.factor1} x {c.factor2}: {c.verdict}")
    return EXIT_OK if report.ok else EXIT_DIFF


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, parser) -> int:
    report = run_audit(seed=args.seed, trials=args.trials)
    if args.format == "json":
        _emit(report.to_payload())
    else:
        print(f"self-audit (seed {report.seed})")
        for check in report.checks:
            status = _mark(check.passed, "pass" if check.passed else "FAIL")
            print(f"{status}  {check.name}: {check.detail}")
        print("findings (informational, never fail the run):")
        for finding in report.findings:
            print(f"  {finding.name}: {finding.summary}")
        print(_mark(report.ok, "audit passed" if report.ok else "audit FAILED"))
    return EXIT_OK if report.ok else EXIT_DIFF


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args, parser) -> int:
    geom = None
    if (args.m1 is None) != (args.m2 is None):
        parser.error("--m1 and --m2 must be given together")
    if args.m1 is not None:
        geom = ProductGeometry(args.m1, args.m2, truncate=not args.no_truncate)
    try:
        form = parse(args.expr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    convention = Convention(args.convention)
    work = 0
    for op in args.apply or ():
        work += _size(form)  # an operator costs about its operand's size
        if work > MAX_WORK:
            print(f"error: operator chain passes {MAX_WORK} units of work", file=sys.stderr)
            return EXIT_USAGE
        if op == "d":
            form = exterior_d(form, convention, geom)
        elif op == "dc":
            form = d_c(form, convention, geom)
        else:
            form = j_action(form)
    if args.format == "json":
        _emit({"command": "eval", "result": to_record(form),
               "result_text": print_text(form)})
    else:
        print(_render(form, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astheno",
        description=(
            "Exact wedge calculus for astheno-Kahler, strong-KT and "
            "Gauduchon checks on products of almost-contact metric factors."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser(
        "check", help="classify one structure pair on one geometry"
    )
    check.add_argument("--m1", type=_half_dim, required=True,
                       help=f"half-dimension of the first factor (1..{MAX_HALF_DIM})")
    check.add_argument("--m2", type=_half_dim, required=True,
                       help=f"half-dimension of the second factor (1..{MAX_HALF_DIM})")
    check.add_argument("--factor1", choices=KINDS, required=True)
    check.add_argument("--factor2", choices=KINDS, required=True)
    check.add_argument("--alpha1", type=_fraction, default=None,
                       help="pin alpha of factor 1 to a rational")
    check.add_argument("--beta1", type=_fraction, default=None,
                       help="pin beta of factor 1 to a rational")
    check.add_argument("--alpha2", type=_fraction, default=None,
                       help="pin alpha of factor 2 to a rational")
    check.add_argument("--beta2", type=_fraction, default=None,
                       help="pin beta of factor 2 to a rational")
    check.add_argument("--condition", choices=[c.value for c in Condition],
                       default="astheno")
    _add_convention(check)
    check.add_argument("--no-truncate", action="store_true",
                       help="work in the free algebra, ignoring volume bounds")
    check.add_argument("--no-ring-reduce", action="store_true",
                       help="skip the quotient by (a1*b1, a2*b2)")
    _add_format(check)
    check.set_defaults(run=cmd_check)

    table = subs.add_parser(
        "table", help="reproduce one bundled reference table row by row"
    )
    table.add_argument("--id", type=_integer, required=True, help="table id, 1..10")
    _add_convention(table)
    _add_format(table)
    table.set_defaults(run=cmd_table)

    scan_p = subs.add_parser(
        "scan", help="verdict matrix over pure pairs and a geometry range"
    )
    scan_p.add_argument("--max-m1", type=_half_dim, default=3)
    scan_p.add_argument("--max-m2", type=_half_dim, default=3)
    scan_p.add_argument("--condition", choices=[c.value for c in Condition],
                        default="astheno")
    _add_convention(scan_p)
    scan_p.add_argument("--no-ring-reduce", action="store_true")
    _add_format(scan_p)
    scan_p.set_defaults(run=cmd_scan)

    verify = subs.add_parser(
        "verify", help="run the full self-audit: checks fail, findings inform"
    )
    verify.add_argument("--seed", type=_integer, default=DEFAULT_SEED)
    verify.add_argument("--trials", type=_at_most(MAX_TRIALS), default=200,
                        help=f"randomized-check sample size (1..{MAX_TRIALS})")
    _add_format(verify)
    verify.set_defaults(run=cmd_verify)

    eval_p = subs.add_parser(
        "eval", help="parse an expression and apply an operator chain"
    )
    eval_p.add_argument("--expr", required=True,
                        help="expression in the /\\ wedge grammar")
    eval_p.add_argument("--apply", action="append", choices=("d", "dc", "j"),
                        help="operator to apply, left to right; repeatable")
    _add_convention(eval_p)
    eval_p.add_argument("--m1", type=_half_dim, default=None,
                        help="optional geometry for truncation")
    eval_p.add_argument("--m2", type=_half_dim, default=None)
    eval_p.add_argument("--no-truncate", action="store_true")
    _add_format(eval_p)
    eval_p.set_defaults(run=cmd_eval)

    return parser


def _unlink(parser: argparse.ArgumentParser) -> None:
    """Drop the links from every action back to the parser that holds it.

    Those links make a parser a web of reference cycles that outlives the
    call until the next full cyclic collection, so a process calling main()
    in a loop holds many dead parsers.  Unlinked, a parser is freed by
    reference counting as soon as main() returns.
    """
    parsers = [parser]
    for held in parsers:
        for action in held._actions:
            action.container = None
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.run(args, parser)
        sys.stdout.flush()  # a closed pipe fails here, not at the interpreter's exit
        return code
    except ValueError as exc:
        # a result with an integer past the interpreter's int-to-str digit
        # limit; the limit stays, since that conversion is quadratic
        if "integer string conversion" not in str(exc):
            raise
        print("error: result too long to print (an integer passes the interpreter's "
              "digit limit)", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout early (`astheno scan | head -1`); stdout goes to
        # devnull so the interpreter's final flush of what is left stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed early", file=sys.stderr)
        return EXIT_USAGE
    finally:
        _unlink(parser)


if __name__ == "__main__":
    sys.exit(main())
