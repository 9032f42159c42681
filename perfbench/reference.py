"""Naive reference semantics for printed PF, EF and RB terms.

This module checks the benchmark's answers.  It shares no code with the
evaluator it checks: it imports nothing from `splitrel`, reads the
printed text of a term itself, and computes values by plain reachability.

A term is read as one string diagram.  Every strand is a graph node and
every generator adds its arcs:

- PF and EF (split preorders and split equivalences): a strand's source
  and target points are linked both ways, so they are one node.  `h`
  adds the arc from its left strand to its right one, `hbar` adds both
  arcs, `swap` crosses two strands, `unit` starts a strand and `counit`
  ends one.
- RB (binary relations): lines point downward only, so a fold or
  co-fold starts fresh strands with arcs from the strands it consumes.

Composition glues the target strands of the first factor to the source
strands of the second.  Closing the glued graph to a fixpoint and
deleting every inner point leaves the value: a pair (x, y) of boundary
points belongs to it when y is reachable from x.
"""
from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-z]+)|(.))")

# (source width, target width) of the leaves, as functions of their arguments.
_LEAF_TYPES = {
    "id": lambda n: (n, n),
    "unit": lambda: (0, 1),
    "counit": lambda: (1, 0),
    "swap": lambda: (2, 2),
    "h": lambda: (2, 2),
    "hbar": lambda: (2, 2),
    "nabla": lambda k: (2 * k, k),
    "delta": lambda k: (k, 2 * k),
    "unitk": lambda k: (0, k),
    "counitk": lambda k: (k, 0),
}


class BadTermText(ValueError):
    """The text is not a well-typed printed term."""


# --------------------------------------------------------------------
# reading printed terms


def _tokens(text: str) -> list[str | int]:
    out: list[str | int] = []
    for number, name, other in _TOKEN_RE.findall(text):
        if number:
            out.append(int(number))
        elif name:
            out.append(name)
        elif other.strip():
            out.append(other)
    return out


class _Reader:
    # A term is ("chain", [factors in application order]), ("pad", l, t, r)
    # or ("leaf", name, args).
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def take(self, want: str | type | None = None):
        if self.pos >= len(self.toks):
            raise BadTermText("unexpected end of term")
        tok = self.toks[self.pos]
        if isinstance(want, str) and tok != want:
            raise BadTermText(f"expected {want!r}, found {tok!r}")
        if isinstance(want, type) and not isinstance(tok, want):
            raise BadTermText(f"expected a {want.__name__}, found {tok!r}")
        self.pos += 1
        return tok

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def chain(self):
        factors = [self.atom()]
        while self.peek() == ".":
            self.take(".")
            factors.append(self.atom())
        factors.reverse()  # "g . f" applies f first
        return ("chain", factors)

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.chain()
            self.take(")")
            return inner
        if tok == "pad":
            self.take("(")
            left = self.take(int)
            self.take(",")
            body = self.chain()
            self.take(",")
            right = self.take(int)
            self.take(")")
            return ("pad", left, body, right)
        if tok not in _LEAF_TYPES:
            raise BadTermText(f"unknown atom {tok!r}")
        args: list[int] = []
        if self.peek() == "(":
            self.take("(")
            args.append(self.take(int))
            self.take(")")
        try:
            _LEAF_TYPES[tok](*args)
        except TypeError:
            raise BadTermText(f"wrong arguments for {tok!r}") from None
        return ("leaf", tok, tuple(args))


def read(text: str):
    reader = _Reader(text)
    term = reader.chain()
    if reader.peek() is not None:
        raise BadTermText(f"trailing input at {reader.peek()!r}")
    return term


def source_width(term) -> int:
    while True:
        kind = term[0]
        if kind == "leaf":
            return _LEAF_TYPES[term[1]](*term[2])[0]
        if kind == "pad":
            return term[1] + source_width(term[2]) + term[3]
        term = term[1][0]


# --------------------------------------------------------------------
# the diagram


class _Diagram:
    def __init__(self, relational: bool):
        self.relational = relational
        self.arcs: list[list[int]] = []

    def strand(self) -> int:
        self.arcs.append([])
        return len(self.arcs) - 1

    def arc(self, a: int, b: int) -> None:
        self.arcs[a].append(b)

    def leaf(self, name: str, args: tuple, ins: list[int]) -> list[int]:
        src, _ = _LEAF_TYPES[name](*args)
        if len(ins) != src:
            raise BadTermText(f"{name} takes {src} strands, got {len(ins)}")
        if name == "id":
            return ins
        if self.relational:
            if name in ("unit", "counit", "swap", "h", "hbar"):
                raise BadTermText(f"{name} is not a relational generator")
            k = args[0]
            if name == "nabla":
                outs = [self.strand() for _ in range(k)]
                for i in range(k):
                    self.arc(ins[i], outs[i])
                    self.arc(ins[k + i], outs[i])
                return outs
            if name == "delta":
                outs = [self.strand() for _ in range(2 * k)]
                for i in range(k):
                    self.arc(ins[i], outs[i])
                    self.arc(ins[i], outs[k + i])
                return outs
            if name == "unitk":
                return [self.strand() for _ in range(k)]
            return []  # counitk
        if name == "unit":
            return [self.strand()]
        if name == "counit":
            return []
        a, b = ins
        if name == "swap":
            return [b, a]
        if name == "h":
            self.arc(a, b)
            return [a, b]
        if name == "hbar":
            self.arc(a, b)
            self.arc(b, a)
            return [a, b]
        raise BadTermText(f"{name} is not a split-preorder generator")

    def wire(self, term, ins: list[int]) -> list[int]:
        kind = term[0]
        if kind == "leaf":
            return self.leaf(term[1], term[2], ins)
        if kind == "pad":
            _, left, body, right = term
            if left + right > len(ins):
                raise BadTermText("padding wider than the input")
            mid = ins[left:len(ins) - right]
            return ins[:left] + self.wire(body, mid) + ins[len(ins) - right:]
        for factor in term[1]:
            ins = self.wire(factor, ins)
        return ins

    def reach(self, start: int) -> set[int]:
        seen = {start}
        todo = [start]
        while todo:
            for nxt in self.arcs[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen


def evaluate(text: str, category: str):
    """Value of a printed term: (n, m, pairs).

    For PF and EF the pairs are ((tag, pos), (tag, pos)) with tag "s" or
    "t", loops included; for RB they are (i, j).
    """
    if category not in ("PF", "EF", "RB"):
        raise BadTermText(f"unknown category {category!r}")
    term = read(text)
    diagram = _Diagram(relational=category == "RB")
    sources = [diagram.strand() for _ in range(source_width(term))]
    targets = diagram.wire(term, sources)
    n, m = len(sources), len(targets)
    if diagram.relational:
        pairs = set()
        for i, a in enumerate(sources):
            seen = diagram.reach(a)
            pairs.update((i, j) for j, b in enumerate(targets) if b in seen)
        return n, m, frozenset(pairs)
    points = [(("s", i), a) for i, a in enumerate(sources)]
    points += [(("t", j), b) for j, b in enumerate(targets)]
    pairs = set()
    for x, a in points:
        seen = diagram.reach(a)
        pairs.update((x, y) for y, b in points if b in seen)
    return n, m, frozenset(pairs)


def value_from_json(obj: dict):
    """The (n, m, pairs) triple of a value printed as JSON by splitrel."""
    pairs = set()
    for x, y in obj["pairs"]:
        if isinstance(x, list):
            pairs.add(((x[0], x[1]), (y[0], y[1])))
        else:
            pairs.add((x, y))
    return obj["n"], obj["m"], frozenset(pairs)


def normal_form(value, category: str) -> dict:
    """The normal-form payload of a value, as `normalize` prints it."""
    n, m, pairs = value
    if category == "RB":
        return {"kind": "iota", "n": n, "m": m,
                "pairs": [list(p) for p in sorted(pairs)]}

    def flat(point) -> int:
        return point[1] if point[0] == "s" else n + point[1]

    strict = {(flat(x), flat(y)) for x, y in pairs if x != y}
    if category == "EF":
        strict = {(min(i, j), max(i, j)) for i, j in strict}
        kind = "etabar"
    else:
        kind = "eta"
    return {"kind": kind, "n": n, "m": m,
            "etas": [list(p) for p in sorted(strict)]}
