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
it forces (None for a neutral atom), its builder and its typing.  Both
the inference above and the check that rejects an atom outside the
signature in force read that entry; an atom forcing EF is allowed in
PF.  A command parses all its texts in one signature through
`_parse_joined`, which scans each text once.

A text is scanned into plain word strings by one regex `findall`; a
word's kind is read from its first character.  Words carry no
positions: only when a `ParseError` is raised is the text scanned again
to give the error its line and column.  The parser types the term as it
builds it, checking each `.` in the order `type_of` does, so a parsed
term is not walked again; only when a junction mismatches does it call
`type_of` once, after the whole text has parsed, for that error's
message.
"""
from __future__ import annotations

import re
from typing import Callable

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
    TermType,
    TermTypeError,
    Unit,
    UnitK,
    _parallel_union,
    _sum,
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


# A word is a number, a name or a punctuation mark; any other character
# but white space is rejected.  Words carry no offsets: an error scans the
# text again with `_POSITIONED`, compiled (and cached by `re`) only then.
_WORD_RE = re.compile(r"\d+|[a-z]+|[.,;()]")
_BAD_RE = re.compile(r"[^\s\da-z.,;()]")
_POSITIONED = r"\s*(\d+|[a-z]+|[.,;()])"

_DIRECTIVE_RE = re.compile(r"%category\s+(PF|EF|RB)\s*$")

# The most points either side of an atom may have: each point of a value
# is a row, so a wider text is refused before anything is built for it.
MAX_POINTS = 4096


def _typed_pair(
    checked: Callable[[ArrowTerm, ArrowTerm], ArrowTerm],
    known: Callable[[ArrowTerm, TermType, ArrowTerm, TermType], ArrowTerm],
) -> Callable[..., ArrowTerm]:
    """The builder of a `T,T` atom: `known` on the parsed types, or
    `checked` once a junction of the text has mismatched."""

    def build(cat: Category, f: tuple, g: tuple) -> ArrowTerm:
        (f, f_type), (g, g_type) = f, g
        if f_type is None or g_type is None:
            # an ill-typed text: the checking builder reports what it finds first
            return checked(f, g)
        return known(f, f_type, g, g_type)

    return build


# name -> (argument shape, signature forced or None, builder, typing).  In
# a shape `n` is a number, `t` a term, `T` a term passed to the builder
# with its parsed type (None once a junction of the text has mismatched),
# and `,`/`;` a separator.  The typing maps the arguments, with each term
# replaced by its (src, tgt), to the (src, tgt) of the built term.
_ATOMS: dict[str, tuple[str, Category | None, Callable[..., ArrowTerm], Callable]] = {
    "id": ("n", None, lambda cat, n: Id(n), lambda n: (n, n)),
    "unit": ("", None, lambda cat: UnitK(1) if cat is RB else Unit(),
             lambda: (0, 1)),
    "counit": ("", None, lambda cat: CounitK(1) if cat is RB else Counit(),
               lambda: (1, 0)),
    "swap": ("", None, lambda cat: tau_rb() if cat is RB else Swap(),
             lambda: (2, 2)),
    "h": ("", PF, lambda cat: H(), lambda: (2, 2)),
    "hbar": ("", EF, lambda cat: hbar_in_pf() if cat is PF else HBar(),
             lambda: (2, 2)),
    "nabla": ("n", RB, lambda cat, k: NablaK(k), lambda k: (2 * k, k)),
    "delta": ("n", RB, lambda cat, k: DeltaK(k), lambda k: (k, 2 * k)),
    "unitk": ("n", RB, lambda cat, k: UnitK(k), lambda k: (0, k)),
    "counitk": ("n", RB, lambda cat, k: CounitK(k), lambda k: (k, 0)),
    "pad": ("n,t,n", None, lambda cat, left, t, right: pad(left, t, right),
            lambda left, t, right: (left + t[0] + right, left + t[1] + right)),
    "plus": ("T,T", None, _typed_pair(plus, _sum),
             lambda f, g: (f[0] + g[0], f[1] + g[1])),
    "eta": ("n,n,n", PF, lambda cat, i, j, n: eta_term(i, j, n),
            lambda i, j, n: (n, n)),
    "etabar": ("n,n,n", EF, lambda cat, i, j, n: (
        Comp(eta_term(i, j, n), eta_term(j, i, n)) if cat is PF
        else etabar_term(i, j, n)
    ), lambda i, j, n: (n, n)),
    "iota": ("n,n;n,n", RB, lambda cat, i, j, n, m: iota_term(i, j, n, m),
             lambda i, j, n, m: (n, m)),
    "zero": ("n,n", None, lambda cat, n, m: zero_term(n, m, cat),
             lambda n, m: (n, m)),
    "union": ("T,T", RB, _typed_pair(union_term, _parallel_union), lambda f, g: f),
}


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    start = text.rfind("\n", 0, pos) + 1
    return line, pos - start + 1


def _word_line_col(text: str, index: int) -> tuple[int, int]:
    """Line and column of word `index` of `text`, or of its end when the
    text has no such word."""
    for k, m in enumerate(re.finditer(_POSITIONED, text)):
        if k == index:
            return _line_col(text, m.start(1))
    return _line_col(text, len(text))


def _extract_header(text: str) -> tuple[str, Category | None]:
    # Directive lines are blanked in place so word offsets keep
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


def _tokenize(text: str) -> list[str]:
    """The words of `text`, then "" for its end."""
    bad = _BAD_RE.search(text)
    if bad:
        line, col = _line_col(text, bad.start())
        raise ParseError(f"unexpected character {bad.group()!r}", line, col)
    words = _WORD_RE.findall(text)
    words.append("")
    return words


def _resolve_category(words: list[str], text: str) -> Category | None:
    names = sorted(_ATOMS.keys() & set(words))
    forced = [_ATOMS[name][1] for name in names]
    if RB in forced:
        split = [name for name, f in zip(names, forced) if f in (PF, EF)]
        if split:
            line, col = _word_line_col(text, words.index(split[0]))
            raise ParseError(
                f"{split[0]!r} cannot appear in a relational term", line, col
            )
        return RB
    # an EF atom expands through `h` in PF, so PF wins
    return PF if PF in forced else EF if EF in forced else None


class _Parser:
    """Builds a term from words and types it on the way: each term comes
    with its (src, tgt).  A `.` whose two sides disagree sets `mismatch`,
    and the caller then asks `type_of` for the error, once the whole text
    has parsed."""

    def __init__(self, text: str, words: list[str], category: Category, bound: dict):
        self.text = text
        self.words = words
        self.category = category
        self.bound = bound
        self.index = 0
        self.mismatch = False

    def error(self, message: str, index: int | None = None) -> ParseError:
        line, col = _word_line_col(
            self.text, self.index if index is None else index
        )
        return ParseError(message, line, col)

    def expect(self, word: str) -> None:
        found = self.words[self.index]
        if found != word:
            raise self.error(f"expected {word!r}, found {found or 'end of input'!r}")
        self.index += 1

    def number(self) -> int:
        word = self.words[self.index]
        if not word[:1].isdecimal():
            raise self.error(f"expected a number, found {word or 'end of input'!r}")
        try:
            value = int(word)
        except ValueError as exc:  # more digits than `int` reads
            raise self.error(str(exc)) from exc
        self.index += 1
        return value

    def term(self) -> tuple[ArrowTerm, int, int]:
        words = self.words
        factors = [self.atom()]
        while words[self.index] == ".":
            self.index += 1
            factors.append(self.atom())
        # fold from the right, the order `type_of` checks the junctions in
        result, src, tgt = factors.pop()
        while factors:
            after, after_src, after_tgt = factors.pop()
            if after_src != tgt:
                self.mismatch = True
            result, tgt = Comp(after, result), after_tgt
        return result, src, tgt

    def atom(self) -> tuple[ArrowTerm, int, int]:
        index = self.index
        word = self.words[index]
        self.index += 1
        if word == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if word in self.bound:
            term, (src, tgt) = self.bound[word]
            return term, src, tgt
        if word not in _ATOMS:
            if "a" <= word[:1] <= "z":
                raise self.error(f"unknown atom {word!r}", index)
            raise self.error(
                f"expected a term, found {word or 'end of input'!r}", index
            )
        shape, forces, build, typing = _ATOMS[word]
        cat = self.category
        # an atom forcing EF is allowed in PF, where it expands through `h`
        if forces not in (None, cat) and (forces, cat) != (EF, PF):
            raise self.error(f"{word!r} is not a {cat.value} generator", index)
        values, types = self.args(shape)
        src, tgt = typing(*types)
        if max(src, tgt) > MAX_POINTS:
            line, col = _word_line_col(self.text, index)
            raise ValueError(
                f"{word!r} of type {src}->{tgt} is wider than {MAX_POINTS} "
                f"points on a side (line {line}, column {col})"
            )
        try:
            return build(cat, *values), src, tgt
        except ValueError as exc:
            raise self.error(str(exc), index) from exc

    def args(self, shape: str) -> tuple[list, list]:
        """The arguments for the builder, and for the typing."""
        if not shape:
            return [], []
        self.expect("(")
        values: list = []
        types: list = []
        for part in shape:
            if part == "n":
                n = self.number()
                values.append(n)
                types.append(n)
            elif part in "tT":
                t, src, tgt = self.term()
                if part == "t":
                    values.append(t)
                else:
                    values.append((t, None if self.mismatch else TermType(src, tgt)))
                types.append((src, tgt))
            else:
                self.expect(part)
        self.expect(")")
        return values, types


def _scan(
    text: str, declared: Category | None
) -> tuple[str, list[str], Category | None]:
    body, header = _extract_header(text)
    words = _tokenize(body)
    if not words[0]:
        raise ParseError("empty input")
    return body, words, declared or header or _resolve_category(words, body)


def _parse_scanned(
    body: str, words: list[str], category: Category, bound: dict = {}
) -> tuple[ArrowTerm, TermType]:
    """The term of scanned `words` and its type.  A word of `bound` reads
    as its `(arrow, type)`, ahead of any atom of that name."""
    parser = _Parser(body, words, category, bound)
    term, src, tgt = parser.term()
    trailing = words[parser.index]
    if trailing:
        raise parser.error(f"unexpected trailing input {trailing!r}")
    if parser.mismatch:
        return term, type_of(term)  # raises the error of the first mismatch
    return term, TermType(src, tgt)


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
    body, words, pinned = _scan(text, category)
    resolved = pinned or PF
    return _parse_scanned(body, words, resolved)[0], resolved


def _parse_joined(
    texts: list[str], category: Category | None
) -> tuple[list[ArrowTerm], list[TermType], Category]:
    """Parse `texts` in one signature: `category` when given, else the
    first one a text pins through its header or an atom, else PF.
    Returns the terms, their types and the signature.

    Every text is scanned once, and all are scanned before any is parsed.
    A text pinning another signature is parsed in its own, so that a
    parse error is reported before the mismatch.
    """
    scans = [_scan(text, category) for text in texts]
    joined = next((pin for *_, pin in scans if pin), PF)
    parsed = [
        _parse_scanned(body, words, pin or joined) for body, words, pin in scans
    ]
    for *_, pin in scans:
        if pin and pin is not joined:
            raise TermTypeError(
                f"category mismatch: {joined.value} vs {pin.value}"
            )
    return [term for term, _ in parsed], [t for _, t in parsed], joined


def parse(text: str, category: Category | str | None = None) -> ArrowTerm:
    """Parse a term; see `parse_with_category`."""
    return parse_with_category(text, category)[0]


def print_term(t: ArrowTerm) -> str:
    """Canonical text: right-nested bare chains, parens only where needed.

    Structural round-trip `parse(print_term(t)) == t` holds for terms in
    the canonical shape produced by the builders (`Pad` only above
    non-identity generator leaves, no sugar nodes).  The before spine is
    walked by a loop.
    """
    texts = []
    while isinstance(t, Comp):
        after = print_term(t.after)
        texts.append(f"({after})" if isinstance(t.after, Comp) else after)
        t = t.before
    return " . ".join([*texts, _print_factor(t)])


# the word of each generator; one with a size prints it in parentheses
_WORDS = {
    Id: "id", Unit: "unit", Counit: "counit", Swap: "swap", H: "h", HBar: "hbar",
    NablaK: "nabla", DeltaK: "delta", UnitK: "unitk", CounitK: "counitk",
}


def _print_factor(t: ArrowTerm) -> str:
    if isinstance(t, Pad):
        return f"pad({t.left}, {print_term(t.body)}, {t.right})"
    if type(t) not in _WORDS:
        raise TypeError(f"not an arrow term: {t!r}")
    return _WORDS[type(t)] + "".join(f"({getattr(t, f)})" for f in t.__match_args__)
