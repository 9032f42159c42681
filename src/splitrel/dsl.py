"""Textual term language: parser and canonical printer.

Grammar:

    term  := comp ;  comp := atom ( "." atom )* ;
    atom  := "id(" nat ")" | "unit" | "counit" | "swap" | "h" | "hbar"
           | "nabla(" nat ")" | "delta(" nat ")" | "unitk(" nat ")" | "counitk(" nat ")"
           | "pad(" nat "," term "," nat ")" | "plus(" term "," term ")"
           | "eta(" nat "," nat "," nat ")" | "etabar(" nat "," nat "," nat ")"
           | "iota(" nat "," nat ";" nat "," nat ")" | "zero(" nat "," nat ")"
           | "union(" term "," term ")" | "(" term ")"

`g . f` applies f first.  An optional header line "%category PF|EF|RB"
pins the signature; an explicit `category=` argument overrides the
header.  Otherwise the least signature covering the atoms is used:
relational atoms force RB, `h`/`eta` force PF, `hbar`/`etabar` force EF
unless PF is already forced (then they expand through the directed
bridge), and purely neutral text defaults to PF.

Shared atoms are reinterpreted per signature: in RB files `unit`,
`counit` and `swap` stand for the one-point insertion, deletion and
the derived transposition.

Each atom is one entry of `_ATOMS`: its argument shape, the signature
it forces (None for a neutral atom) and its builder.  Both the
inference above and the check that rejects an atom outside the
signature in force read that entry; an atom forcing EF is allowed in
PF.  A command parses all its texts in one signature through
`_parse_joined`, which scans each text once.
"""
from __future__ import annotations

import re
from typing import Callable, NamedTuple

from splitrel.terms import (
    ArrowTerm,
    Category,
    Comp,
    Counit,
    CounitK,
    DeltaK,
    H,
    HBar,
    Id,
    NablaK,
    Pad,
    Swap,
    TermTypeError,
    Unit,
    UnitK,
    eta_term,
    etabar_term,
    hbar_in_pf,
    iota_term,
    pad,
    plus,
    tau_rb,
    type_of,
    union_term,
    zero_term,
)

PF, EF, RB = Category.PF, Category.EF, Category.RB


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str  # NAT, NAME, EOF, or the punctuation character itself
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)|(?P<NAT>\d+)|(?P<NAME>[a-z]+)|(?P<PUNCT>[.,;()])|(?P<BAD>.)"
)

_DIRECTIVE_RE = re.compile(r"%category\s+(PF|EF|RB)\s*$")

# name -> (argument shape, signature forced or None, builder).  In a shape
# `n` is a number, `t` a term, and `,`/`;` a separator.
_ATOMS: dict[str, tuple[str, Category | None, Callable[..., ArrowTerm]]] = {
    "id": ("n", None, lambda cat, n: Id(n)),
    "unit": ("", None, lambda cat: UnitK(1) if cat is RB else Unit()),
    "counit": ("", None, lambda cat: CounitK(1) if cat is RB else Counit()),
    "swap": ("", None, lambda cat: tau_rb() if cat is RB else Swap()),
    "h": ("", PF, lambda cat: H()),
    "hbar": ("", EF, lambda cat: hbar_in_pf() if cat is PF else HBar()),
    "nabla": ("n", RB, lambda cat, k: NablaK(k)),
    "delta": ("n", RB, lambda cat, k: DeltaK(k)),
    "unitk": ("n", RB, lambda cat, k: UnitK(k)),
    "counitk": ("n", RB, lambda cat, k: CounitK(k)),
    "pad": ("n,t,n", None, lambda cat, left, t, right: pad(left, t, right)),
    "plus": ("t,t", None, lambda cat, f, g: plus(f, g)),
    "eta": ("n,n,n", PF, lambda cat, i, j, n: eta_term(i, j, n)),
    "etabar": ("n,n,n", EF, lambda cat, i, j, n: (
        Comp(eta_term(i, j, n), eta_term(j, i, n)) if cat is PF
        else etabar_term(i, j, n)
    )),
    "iota": ("n,n;n,n", RB, lambda cat, i, j, n, m: iota_term(i, j, n, m)),
    "zero": ("n,n", None, lambda cat, n, m: zero_term(n, m, cat)),
    "union": ("t,t", RB, lambda cat, f, g: union_term(f, g)),
}


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    start = text.rfind("\n", 0, pos) + 1
    return line, pos - start + 1


def _extract_header(text: str) -> tuple[str, Category | None]:
    # Directive lines are blanked in place so token offsets keep
    # pointing into the original text.
    lines = text.split("\n")
    header: Category | None = None
    seen_term = False
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            lno = idx + 1
            if seen_term:
                raise ParseError("header directive after term text", lno, 1)
            m = _DIRECTIVE_RE.fullmatch(stripped)
            if not m:
                raise ParseError(f"unknown directive {stripped!r}", lno, 1)
            if header is not None:
                raise ParseError("duplicate %category directive", lno, 1)
            header = Category[m.group(1)]
            lines[idx] = " " * len(line)
        else:
            seen_term = True
    return "\n".join(lines), header


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "BAD":
            line, col = _line_col(text, m.start())
            raise ParseError(f"unexpected character {word!r}", line, col)
        if kind != "WS":
            tokens.append(_Token(word if kind == "PUNCT" else kind, word, m.start()))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


def _resolve_category(tokens: list[_Token], text: str) -> Category | None:
    names = sorted({t.text for t in tokens if t.kind == "NAME"} & _ATOMS.keys())
    forced = [_ATOMS[name][1] for name in names]
    if RB in forced:
        split = [name for name, f in zip(names, forced) if f in (PF, EF)]
        if split:
            token = next(t for t in tokens if t.text == split[0])
            line, col = _line_col(text, token.pos)
            raise ParseError(
                f"{split[0]!r} cannot appear in a relational term", line, col
            )
        return RB
    # an EF atom expands through `h` in PF, so PF wins
    return PF if PF in forced else EF if EF in forced else None


class _Parser:
    def __init__(self, text: str, tokens: list[_Token], category: Category):
        self.text = text
        self.tokens = tokens
        self.category = category
        self.index = 0

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        token = token or self.tokens[self.index]
        line, col = _line_col(self.text, token.pos)
        return ParseError(message, line, col)

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            what = "a number" if kind == "NAT" else repr(kind)
            raise self.error(f"expected {what}, found {token.text or 'end of input'!r}")
        return self.advance()

    def term(self) -> ArrowTerm:
        factors = [self.atom()]
        while self.peek().kind == ".":
            self.advance()
            factors.append(self.atom())
        result = factors[-1]
        for f in reversed(factors[:-1]):
            result = Comp(f, result)
        return result

    def atom(self) -> ArrowTerm:
        token = self.advance()
        if token.kind == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if token.kind != "NAME":
            raise self.error(
                f"expected a term, found {token.text or 'end of input'!r}", token
            )
        if token.text not in _ATOMS:
            raise self.error(f"unknown atom {token.text!r}", token)
        shape, forces, build = _ATOMS[token.text]
        cat = self.category
        # an atom forcing EF is allowed in PF, where it expands through `h`
        if forces not in (None, cat) and (forces, cat) != (EF, PF):
            raise self.error(f"{token.text!r} is not a {cat.value} generator", token)
        try:
            return build(cat, *self.args(shape))
        except ParseError:
            raise
        except ValueError as exc:
            raise self.error(str(exc), token) from exc

    def args(self, shape: str) -> list:
        if not shape:
            return []
        self.expect("(")
        values: list = []
        for part in shape:
            if part == "n":
                values.append(int(self.expect("NAT").text))
            elif part == "t":
                values.append(self.term())
            else:
                self.expect(part)
        self.expect(")")
        return values


def _scan(
    text: str, declared: Category | None
) -> tuple[str, list[_Token], Category | None]:
    body, header = _extract_header(text)
    tokens = _tokenize(body)
    if tokens[0].kind == "EOF":
        raise ParseError("empty input")
    return body, tokens, declared or header or _resolve_category(tokens, body)


def _parse_scanned(
    body: str, tokens: list[_Token], category: Category
) -> ArrowTerm:
    parser = _Parser(body, tokens, category)
    term = parser.term()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise parser.error(f"unexpected trailing input {trailing.text!r}")
    type_of(term)
    return term


def parse_with_category(
    text: str, category: Category | str | None = None
) -> tuple[ArrowTerm, Category]:
    """Parse a term and resolve its signature.

    `category` (a `Category` or its name) overrides any `%category`
    header; with neither, the signature is inferred from the atoms.
    """
    if isinstance(category, str):
        try:
            category = Category[category.upper()]
        except KeyError:
            raise ParseError(f"unknown category {category!r}") from None
    body, tokens, pinned = _scan(text, category)
    resolved = pinned or PF
    return _parse_scanned(body, tokens, resolved), resolved


def _parse_joined(
    texts: list[str], category: Category | None
) -> tuple[list[ArrowTerm], Category]:
    """Parse `texts` in one signature: `category` when given, else the
    first one a text pins through its header or an atom, else PF.

    Every text is scanned once, and all are scanned before any is parsed.
    A text pinning another signature is parsed in its own, so that a
    parse error is reported before the mismatch.
    """
    scans = [_scan(text, category) for text in texts]
    joined = next((pin for *_, pin in scans if pin), PF)
    terms = [
        _parse_scanned(body, tokens, pin or joined) for body, tokens, pin in scans
    ]
    for *_, pin in scans:
        if pin and pin is not joined:
            raise TermTypeError(
                f"category mismatch: {joined.value} vs {pin.value}"
            )
    return terms, joined


def parse(text: str, category: Category | str | None = None) -> ArrowTerm:
    """Parse a term; see `parse_with_category`."""
    return parse_with_category(text, category)[0]


def print_term(t: ArrowTerm) -> str:
    """Canonical text: right-nested bare chains, parens only where needed.

    Structural round-trip `parse(print_term(t)) == t` holds for terms in
    the canonical shape produced by the builders (`Pad` only above
    non-identity generator leaves, no sugar nodes).
    """
    match t:
        case Id(n):
            return f"id({n})"
        case Unit():
            return "unit"
        case Counit():
            return "counit"
        case Swap():
            return "swap"
        case H():
            return "h"
        case HBar():
            return "hbar"
        case NablaK(k):
            return f"nabla({k})"
        case DeltaK(k):
            return f"delta({k})"
        case UnitK(k):
            return f"unitk({k})"
        case CounitK(k):
            return f"counitk({k})"
        case Pad(left, body, right):
            return f"pad({left}, {print_term(body)}, {right})"
        case Comp(after, before):
            head = print_term(after)
            if isinstance(after, Comp):
                head = f"({head})"
            return f"{head} . {print_term(before)}"
        case _:
            raise TypeError(f"not an arrow term: {t!r}")
