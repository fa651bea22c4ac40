"""Batch command-line frontend.

Exit codes: 0 on success, 1 when a check or verification fails, 2 on input
errors (unreadable files, parse or schema errors).  Reports are line
oriented; --format structured switches to one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import covers, kernel, realizability
from .kleene import Diverged, kterm_src
from .syntax import (
    PRETYPES, CtDirective, PreTerm, SyntaxError_, parse, parse_file, to_src,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise SystemExit2(f"cannot read {path}: {e}")


class SystemExit2(Exception):
    pass


def _emit(out, record: dict, structured: bool):
    if structured:
        print(json.dumps(record, sort_keys=True), file=out)
    else:
        line = record.get("line")
        prefix = f"{line}: " if line is not None else ""
        print(prefix + record["text"], file=out)


def cmd_check(args, out) -> int:
    items = parse_file(_read(args.file))
    failures = 0
    for lineno, j in items:
        if isinstance(j, CtDirective):
            _emit(out, {"line": lineno, "verdict": "skipped",
                        "text": "skipped (ct lines belong to verify)"},
                  args.structured)
            continue
        r = kernel.check_judgment(j, fuel=args.fuel)
        if r.accepted:
            _emit(out, {"line": lineno, "verdict": "accepted",
                        "text": "accepted"}, args.structured)
        else:
            failures += 1
            _emit(out, {"line": lineno, "verdict": "rejected", "rule": r.rule,
                        "reason": r.reason,
                        "text": f"rejected [{r.rule}] {r.reason}"},
                  args.structured)
    return EXIT_FAIL if failures else EXIT_OK


def cmd_eval(args, out) -> int:
    t = _parse_term_arg(args)
    try:
        result = kernel.whnf(t, fuel=args.fuel)
    except Diverged:
        _emit(out, {"verdict": "fuel",
                    "text": f"no weak-head normal form within {args.fuel} steps"},
              args.structured)
        return EXIT_FAIL
    _emit(out, {"verdict": "ok", "result": to_src(result),
                "text": to_src(result)}, args.structured)
    return EXIT_OK


def cmd_realize(args, out) -> int:
    t = _parse_term_arg(args)
    try:
        r = realizability.realize(t, fuel=args.fuel)
    except Diverged:
        _emit(out, {"verdict": "fuel", "text": "interpretation diverged "
                    f"within {args.fuel} steps"}, args.structured)
        return EXIT_FAIL
    if isinstance(r, int):
        _emit(out, {"verdict": "ok", "numeral": r, "text": str(r)},
              args.structured)
    else:
        _emit(out, {"verdict": "ok", "kterm": kterm_src(r),
                    "text": kterm_src(r)}, args.structured)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    items = parse_file(_read(args.file))
    failures = 0
    for lineno, j in items:
        t = realizability.validate(j, stage=args.stage, fuel=args.fuel,
                                   bound=args.bound)
        if t.kind == "no":
            failures += 1
        _emit(out, {"line": lineno, "verdict": t.kind, "reason": t.reason,
                    "text": str(t)}, args.structured)
    return EXIT_FAIL if failures else EXIT_OK


def cmd_cover(args, out) -> int:
    ax, queries = covers.parse_axiom_file(_read(args.file))
    if args.query:
        try:
            queries.append(covers.parse_query(args.query.split(), ax.carrier))
        except covers.SchemaError as e:
            raise SystemExit2(f"--query: {e}")
    failures = 0
    for elem, v in queries:
        sat = covers.saturate(ax, v)
        covered = elem in sat
        if not covered:
            failures += 1
        listing = sorted(map(str, sat))
        _emit(out, {"query": f"{elem} <| {' '.join(sorted(map(str, v)))}",
                    "verdict": "covered" if covered else "not-covered",
                    "saturation": listing,
                    "text": f"{'covered' if covered else 'not-covered'}: "
                            f"{elem}  saturation = {{{' '.join(listing)}}}"},
              args.structured)
    return EXIT_FAIL if failures else EXIT_OK


def cmd_wp(args, out) -> int:
    rel, carrier = covers.parse_relation_file(_read(args.file))
    try:
        wp = covers.well_founded_part(rel, carrier)
    except ValueError as e:
        raise SystemExit2(str(e))
    listing = " ".join(sorted(map(str, wp)))
    _emit(out, {"well_founded_part": sorted(map(str, wp)),
                "text": f"well-founded part = {{{listing}}}"}, args.structured)
    return EXIT_OK


EXAMPLE_JUDGMENTS = """\
# judgments: one per line; see docs/grammar.md
term [] |- lam x . x : N -> N
termeq [] |- Ap(lam x . succ(x), 0) == 1 : N
type [] |- Sigma x : N . Id(N, x, x)
typeeq [] |- T(nhat) == N
ct lam x . succ(x)
"""

EXAMPLE_COVER = """\
# cover schema: carrier, index, cover, and query lines
carrier a b c
index a : j
cover a j : b c
query a <| b c
query a <| b
"""

EXAMPLE_RELATION = """\
# relation schema: 'rel z x' places z strictly below x
carrier 0 1 2
rel 2 2
rel 2 1
"""


def cmd_examples(args, out) -> int:
    samples = {"judgments": EXAMPLE_JUDGMENTS, "cover": EXAMPLE_COVER,
               "relation": EXAMPLE_RELATION}
    print(samples[args.kind], end="", file=out)
    return EXIT_OK


def _parse_term_arg(args):
    src = _read(args.term[len("@"):]) if args.term.startswith("@") else args.term
    t = parse(src)
    if not isinstance(t, PreTerm):
        raise SystemExit2("expected a term, found a judgment")
    if type(t) in PRETYPES:
        raise SystemExit2("expected a term, found a type")
    return t


def _natural(text: str) -> int:
    """argparse type of --stage, --bound and --fuel: an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covtt",
        description="check, evaluate, realize, and verify judgments; "
                    "run cover saturations and well-founded parts")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fuel=True):
        if fuel:
            p.add_argument("--fuel", type=_natural, default=kernel.DEFAULT_FUEL,
                           help="step limit for reduction and evaluation")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")

    p = sub.add_parser("check", help="type-check a judgment file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("eval", help="print the weak-head normal form of a term")
    p.add_argument("term", help="term source, or @FILE")
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("realize", help="print a term's interpretation")
    p.add_argument("term", help="term source, or @FILE")
    common(p)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("verify", help="validate judgments in the model")
    p.add_argument("file")
    p.add_argument("--stage", type=_natural, default=realizability.DEFAULT_STAGE)
    p.add_argument("--bound", type=_natural, default=realizability.DEFAULT_BOUND)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cover", help="saturate an axiom set and run queries")
    p.add_argument("file")
    p.add_argument("--query", help="extra query, e.g. 'a <| b c'")
    common(p, fuel=False)
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("wp", help="well-founded part of a finite relation")
    p.add_argument("file")
    common(p, fuel=False)
    p.set_defaults(fn=cmd_wp)

    p = sub.add_parser("examples", help="print sample input files")
    p.add_argument("kind", choices=("judgments", "cover", "relation"),
                   nargs="?", default="judgments")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(fn=cmd_examples)
    return ap


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    if hasattr(sys, "set_int_max_str_digits"):  # numerals outgrow 4300 digits
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    args.structured = args.format == "structured"
    try:
        return args.fn(args, out)
    except (SystemExit2, SyntaxError_, covers.SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
