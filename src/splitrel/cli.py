"""Batch command line: evaluate, compare, normalize, check, separate, render, fuzz.

Term and value arguments are read literally, from a file when prefixed
with ``@``, or from stdin when given as ``-``.  A command parses and
evaluates all of its terms in one signature: ``--category`` when given,
else the one its texts pin through a ``%category`` header or an atom
that forces one (two different pins are a signature error), else PF.
Exit codes: 0 success,
1 a checked property failed (eq found the terms different, or a report
contains failures), 2 input could not be parsed, 3 a term is ill-typed
or in the wrong signature, 4 a precondition was violated (eq on terms
of different types, separate on equal terms, an unreadable @file, a
negative --max-param, a negative fuzz --count, --max-depth, --max-pad
or --max-arity, or a term or value payload wider than `MAX_POINTS` =
4,096 points on a side: an atom whose type is wider, or a `render`
payload whose "n" or "m" is larger), 5 an unexpected exception, so a
crash never reads as a verdict.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from splitrel.catalog import axiom_catalog, check_axiom
from splitrel.dsl import MAX_POINTS, ParseError, _parse_joined, print_term
from splitrel.fuzz import fuzz_report
from splitrel.maximality import _separate
from splitrel.normalform import NORMAL_FORMS
from splitrel.relations import BinRel, SplitRelation
from splitrel.render import ascii_picture, dot_graph, text_listing
from splitrel.semantics import _boundary, _rows, _same_value
from splitrel.terms import ArrowTerm, Category, TermType, TermTypeError

EXIT_OK = 0
EXIT_DIFFER = 1
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

_VALUE_FORMATS = {
    "json": lambda v: v.to_json(),
    "text": text_listing,
    "ascii": ascii_picture,
    "dot": dot_graph,
}


def _read_source(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    if text.startswith("@"):
        try:
            return Path(text[1:]).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read {text[1:]}: {exc.strerror}") from exc
    return text


def _category(args: argparse.Namespace) -> Category | None:
    return None if args.category is None else Category[args.category]


def _parse_terms(
    args: argparse.Namespace, *sources: str
) -> tuple[list[ArrowTerm], list[TermType], Category]:
    """Read and parse `sources` in the one signature the command works in.

    Returns the terms, their types and the signature.  The parser admits
    only atoms of that signature, so the terms are evaluated in it with no
    further check.
    """
    return _parse_joined([_read_source(s) for s in sources], _category(args))


def _dumps(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def cmd_eval(args: argparse.Namespace) -> int:
    (term,), _, category = _parse_terms(args, args.term)
    value = _boundary(_rows(term, category, {}), category)
    print(_VALUE_FORMATS[args.format](value))
    return EXIT_OK


def cmd_eq(args: argparse.Namespace) -> int:
    (f, g), (f_type, g_type), category = _parse_terms(args, args.lhs, args.rhs)
    if f_type != g_type:
        print(f"cannot compare: {f_type} vs {g_type}", file=sys.stderr)
        return EXIT_PRECONDITION
    memo: dict = {}
    same = _same_value(f, g, category, memo)
    witness = None
    if args.separate and not same:
        witness = _separate(f, g, category, memo)
    if args.format == "json":
        obj: dict = {"equal": same}
        if witness is not None:
            obj["witness"] = witness.to_json_obj()
        print(_dumps(obj))
    else:
        print("equal" if same else "not equal")
        if witness is not None:
            print(witness.to_json())
    return EXIT_OK if same else EXIT_DIFFER


def cmd_normalize(args: argparse.Namespace) -> int:
    (term,), _, category = _parse_terms(args, args.term)
    kind, to_nf, from_nf = NORMAL_FORMS[category]
    payload = to_nf(term)
    canonical = print_term(from_nf(payload))
    if args.format == "json":
        print(_dumps({"kind": kind, **payload.to_json(), "term": canonical}))
    else:
        print(_dumps({"kind": kind, **payload.to_json()}))
        print(canonical)
    return EXIT_OK


def cmd_check_axioms(args: argparse.Namespace) -> int:
    if args.max_param < 0:
        raise ValueError(f"--max-param must be non-negative, got {args.max_param}")
    categories = (
        [Category[args.category]] if args.category else list(Category)
    )
    rows = []
    for category in categories:
        for axiom in axiom_catalog(category):
            checked, failing = check_axiom(axiom, args.max_param)
            rows.append((category, axiom, checked, failing))
    bad = sum(1 for *_, failing in rows if failing)
    if args.format == "json":
        print(_dumps({
            "max_param": args.max_param,
            "entries": [
                {
                    "category": category.name,
                    "name": axiom.name,
                    "instances": checked,
                    "failures": [list(p) for p in failing],
                }
                for category, axiom, checked, failing in rows
            ],
            "ok": bad == 0,
        }))
    else:
        for category, axiom, checked, failing in rows:
            if failing:
                print(f"{category.name} {axiom.name}: FAIL "
                      f"{len(failing)}/{checked} e.g. {failing[0]}")
            else:
                print(f"{category.name} {axiom.name}: ok "
                      f"({checked} instances)")
        verdict = "all sound" if bad == 0 else f"{bad} failing"
        print(f"{len(rows)} axioms checked: {verdict}")
    return EXIT_OK if bad == 0 else EXIT_DIFFER


def cmd_separate(args: argparse.Namespace) -> int:
    (f, g), _, category = _parse_terms(args, args.lhs, args.rhs)
    witness = _separate(f, g, category, {})
    if args.format == "json":
        print(witness.to_json())
    else:
        obj = witness.to_json_obj()
        print(f"category: {obj['category']}")
        print(f"pivot: {_dumps(obj['pivot'])}")
        print(f"pre: {obj['pre']}")
        print(f"post: {obj['post']}")
        for k, result in enumerate(witness.results):
            print(f"result {k}:")
            for line in text_listing(result).splitlines():
                print(f"  {line}")
    return EXIT_OK


def _value_from_json(raw: str, category: Category | None):
    data = json.loads(raw)
    try:
        pairs = data["pairs"]
        relational = (
            category is Category.RB
            if category is not None
            else any(not isinstance(p[0], list) for p in pairs)
        )
        n, m = data["n"], data["m"]
        if max(n, m) <= MAX_POINTS:  # rows are allocated only below the limit
            return (BinRel if relational else SplitRelation).from_json(raw)
    except json.JSONDecodeError:
        raise
    except Exception as exc:
        raise ParseError(f"bad value payload: {exc}") from exc
    raise ValueError(
        f"value of type {n}->{m} is wider than {MAX_POINTS} points on a side"
    )


def cmd_render(args: argparse.Namespace) -> int:
    value = _value_from_json(_read_source(args.value), _category(args))
    print(_VALUE_FORMATS[args.format](value))
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    for option in ("count", "max_depth", "max_pad", "max_arity"):
        if getattr(args, option) < 0:
            raise ValueError(
                f"--{option.replace('_', '-')} must be non-negative, "
                f"got {getattr(args, option)}"
            )
    report = fuzz_report(
        Category[args.category],
        args.count,
        args.seed,
        max_depth=args.max_depth,
        max_pad=args.max_pad,
        max_arity=args.max_arity,
    )
    if args.format == "json":
        print(_dumps(report))
    else:
        print(f"category {report['category']} seed {report['seed']} "
              f"count {report['count']}")
        checks = report["checks"]
        print(f"roundtrip {checks['roundtrip']} "
              f"agreement {checks['agreement']} "
              f"separation {checks['separation']} "
              f"equal-pairs {report['equal_pairs']}")
        for failure in report["failures"]:
            print(f"FAIL [{failure['index']}] {failure['check']}: "
                  f"{failure['detail']}")
        print("ok" if report["ok"] else "failing")
    return EXIT_OK if report["ok"] else EXIT_DIFFER


# Looked up per call, not kept on the cached parser: a replaced handler applies.
_COMMANDS = {
    "eval": cmd_eval,
    "eq": cmd_eq,
    "normalize": cmd_normalize,
    "check-axioms": cmd_check_axioms,
    "separate": cmd_separate,
    "render": cmd_render,
    "fuzz": cmd_fuzz,
}


def _add_category(sub: argparse.ArgumentParser, required: bool = False) -> None:
    sub.add_argument(
        "--category",
        choices=["PF", "EF", "RB"],
        type=str.upper,
        required=required,
        default=None,
        help="signature to parse and evaluate in (inferred when omitted)",
    )


def _add_format(sub: argparse.ArgumentParser, choices: list[str],
                default: str) -> None:
    sub.add_argument("--format", choices=choices, default=default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: ``parse_args`` keeps no state on it, defaults
    are immutable, and streams and terminal width are read when printing."""
    parser = argparse.ArgumentParser(
        prog="splitrel",
        description=(
            "Evaluate, compare, normalize, separate and picture diagram "
            "terms over split preorders, split equivalences and binary "
            "relations.  Term arguments are literal text, @file, or - for "
            "stdin."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("eval", help="evaluate a term to its relation")
    sub.add_argument("term")
    _add_category(sub)
    _add_format(sub, ["json", "text", "ascii", "dot"], "json")

    sub = commands.add_parser("eq", help="decide whether two terms are equal")
    sub.add_argument("lhs")
    sub.add_argument("rhs")
    _add_category(sub)
    _add_format(sub, ["json", "text"], "text")
    sub.add_argument("--separate", action="store_true",
                     help="attach a separating context when not equal")

    sub = commands.add_parser("normalize",
                              help="print the normal form payload and term")
    sub.add_argument("term")
    _add_category(sub)
    _add_format(sub, ["json", "text"], "text")

    sub = commands.add_parser("check-axioms",
                              help="evaluate both sides of every axiom")
    _add_category(sub)
    sub.add_argument("--max-param", type=int, default=3)
    _add_format(sub, ["json", "text"], "text")

    sub = commands.add_parser("separate",
                              help="build a separating context for two terms")
    sub.add_argument("lhs")
    sub.add_argument("rhs")
    _add_category(sub)
    _add_format(sub, ["json", "text"], "json")

    sub = commands.add_parser("render", help="picture a relation value")
    sub.add_argument("value", help="value JSON (as printed by eval)")
    _add_category(sub)
    _add_format(sub, ["ascii", "dot", "text", "json"], "ascii")

    sub = commands.add_parser("fuzz", help="run the seeded random battery")
    _add_category(sub, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--count", type=int, default=100)
    sub.add_argument("--max-depth", type=int, default=6)
    sub.add_argument("--max-pad", type=int, default=3)
    sub.add_argument("--max-arity", type=int, default=3)
    _add_format(sub, ["json", "text"], "text")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except json.JSONDecodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TermTypeError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except ValueError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
