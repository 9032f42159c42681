"""Canonical normal forms: eta form for preorder and equivalence terms,
iota form for relational terms.

A normal form here is a plain payload (counts plus a set of pairs) computed
from the evaluation of a term, together with a reconstruction that turns the
payload back into a canonical term.  Two terms denote the same arrow exactly
when their payloads coincide, so the payloads double as decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relations import SRC, SplitRelation
from .semantics import eval_term
from .terms import (
    ArrowTerm,
    Category,
    Perm,
    TermTypeError,
    category_of,
    compose_chain,
    counit_power,
    eta_term,
    etabar_term,
    iota_term,
    pad,
    perm_factors,
    perm_term,
    union_term,
    unit_power,
    zero_term,
)

__all__ = [
    "Perm",
    "perm_factors",
    "perm_term",
    "perm_remove",
    "eta_term",
    "etabar_term",
    "EtaNF",
    "EtaBarNF",
    "IotaNF",
    "eta_nf",
    "eta_nf_term",
    "etabar_nf",
    "etabar_nf_term",
    "iota_nf",
    "iota_nf_term",
]


def perm_remove(p: Perm, k: int, l: int) -> Perm:
    """Drop the pair (k, l) from a permutation, shrinking it by one.

    Requires p(k) == l.  Positions above k on the source side and above l
    on the target side slide down to fill the gap.
    """
    n = p.size
    if not 0 <= k < n:
        raise ValueError(f"position {k} out of range for a permutation of size {n}")
    if p(k) != l:
        raise ValueError(f"permutation maps {k} to {p(k)}, not {l}")
    images = []
    for i in range(n - 1):
        tgt = p(i if i < k else i + 1)
        images.append(tgt if tgt < l else tgt - 1)
    return Perm(tuple(images))


def _check_pair_field(pairs: object) -> tuple[tuple[int, int], ...]:
    if not isinstance(pairs, tuple):
        raise TypeError("pairs must be stored as a tuple")
    for entry in pairs:
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or not all(isinstance(x, int) for x in entry)
        ):
            raise TypeError(f"malformed pair entry: {entry!r}")
    if list(pairs) != sorted(set(pairs)):
        raise ValueError("pairs must be sorted and free of repetitions")
    return pairs


@dataclass(frozen=True, slots=True)
class EtaNF:
    """Eta normal form payload for a preorder term n -> m.

    ``etas`` lists ordered pairs (i, j) over the n + m flattened strands:
    positions 0..n-1 are the sources, n..n+m-1 the targets.  The set is the
    strict part of the denoted split preorder, so it is closed under
    composition of distinct endpoints.
    """

    n: int
    m: int
    etas: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError("negative arity")
        _check_pair_field(self.etas)
        width = self.n + self.m
        present = set(self.etas)
        for i, j in self.etas:
            if not (0 <= i < width and 0 <= j < width):
                raise ValueError(f"eta pair ({i}, {j}) out of range for {width} strands")
            if i == j:
                raise ValueError(f"eta pair may not repeat a strand: ({i}, {j})")
        for a, b in self.etas:
            for c, d in self.etas:
                if b == c and a != d and (a, d) not in present:
                    raise ValueError(
                        f"not closed for strict transitivity: ({a}, {b}) and "
                        f"({c}, {d}) demand ({a}, {d})"
                    )

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "etas": [list(p) for p in self.etas]}

    @classmethod
    def from_json(cls, data: dict) -> "EtaNF":
        etas = tuple(sorted((int(i), int(j)) for i, j in data["etas"]))
        return cls(int(data["n"]), int(data["m"]), etas)


@dataclass(frozen=True, slots=True)
class EtaBarNF:
    """Eta normal form payload for an equivalence term.

    Pairs are unordered; each is stored as (min, max).  Closure means every
    connected component of the pair graph is a clique.
    """

    n: int
    m: int
    etas: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError("negative arity")
        _check_pair_field(self.etas)
        width = self.n + self.m
        present = set(self.etas)
        for i, j in self.etas:
            if not (0 <= i < width and 0 <= j < width):
                raise ValueError(f"eta pair ({i}, {j}) out of range for {width} strands")
            if i >= j:
                raise ValueError(f"unordered pair must be stored as (min, max): ({i}, {j})")
        links = self.etas + tuple((j, i) for i, j in self.etas)
        for a, b in links:
            for c, d in links:
                if b == c and a != d and (min(a, d), max(a, d)) not in present:
                    raise ValueError(
                        f"pairs do not close into cliques: {{{a}, {b}}} and "
                        f"{{{c}, {d}}} demand {{{a}, {d}}}"
                    )

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "etas": [list(p) for p in self.etas]}

    @classmethod
    def from_json(cls, data: dict) -> "EtaBarNF":
        etas = tuple(sorted((int(i), int(j)) for i, j in data["etas"]))
        return cls(int(data["n"]), int(data["m"]), etas)


@dataclass(frozen=True, slots=True)
class IotaNF:
    """Iota normal form payload for a relational term n -> m: the relation
    itself as a sorted pair set.  Empty stands for the zero arrow."""

    n: int
    m: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError("negative arity")
        _check_pair_field(self.pairs)
        for i, j in self.pairs:
            if not (0 <= i < self.n and 0 <= j < self.m):
                raise ValueError(f"pair ({i}, {j}) out of range for type {self.n}->{self.m}")

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_json(cls, data: dict) -> "IotaNF":
        pairs = tuple(sorted((int(i), int(j)) for i, j in data["pairs"]))
        return cls(int(data["n"]), int(data["m"]), pairs)


def _flatten_strict(value: SplitRelation) -> tuple[tuple[int, int], ...]:
    n = value.n

    def flat(node) -> int:
        return node.pos if node.tag == SRC else n + node.pos

    return tuple(sorted((flat(x), flat(y)) for x, y in value.pairs if x != y))


def _expect_category(t: ArrowTerm, home: Category, what: str) -> None:
    cat = category_of(t, default=home)
    if cat is not home:
        raise TermTypeError(f"{what} needs a {home.name} term, got {cat.name}")


def eta_nf(t: ArrowTerm) -> EtaNF:
    """Eta normal form of a preorder term: its strict pairs, flattened so
    source strand k becomes k and target strand k becomes n + k."""
    _expect_category(t, Category.PF, "eta normal form")
    value = eval_term(t, category=Category.PF)
    return EtaNF(value.n, value.m, _flatten_strict(value))


def etabar_nf(t: ArrowTerm) -> EtaBarNF:
    """Eta normal form of an equivalence term, with unordered pairs."""
    _expect_category(t, Category.EF, "overlined eta normal form")
    value = eval_term(t, category=Category.EF)
    unordered = {(min(i, j), max(i, j)) for i, j in _flatten_strict(value)}
    return EtaBarNF(value.n, value.m, tuple(sorted(unordered)))


def iota_nf(t: ArrowTerm) -> IotaNF:
    """Iota normal form of a relational term: simply its relation."""
    _expect_category(t, Category.RB, "iota normal form")
    value = eval_term(t, category=Category.RB)
    return IotaNF(value.n, value.m, tuple(sorted(value.pairs)))


def eta_nf_term(nf: EtaNF) -> ArrowTerm:
    """Canonical term for an eta payload.

    The eta factors sit between a block of units and a block of counits;
    factors are right-nested so the printed composition lists the pairs in
    ascending order.
    """
    width = nf.n + nf.m
    factors: list[ArrowTerm] = [pad(nf.n, unit_power(nf.m, Category.PF), 0)]
    for i, j in sorted(nf.etas, reverse=True):
        factors.append(eta_term(i, j, width))
    factors.append(pad(0, counit_power(nf.n, Category.PF), nf.m))
    return compose_chain(factors, nf.n)


def etabar_nf_term(nf: EtaBarNF) -> ArrowTerm:
    """Canonical term for an unordered eta payload, built from overlined
    eta factors."""
    width = nf.n + nf.m
    factors: list[ArrowTerm] = [pad(nf.n, unit_power(nf.m, Category.EF), 0)]
    for i, j in sorted(nf.etas, reverse=True):
        factors.append(etabar_term(i, j, width))
    factors.append(pad(0, counit_power(nf.n, Category.EF), nf.m))
    return compose_chain(factors, nf.n)


def iota_nf_term(nf: IotaNF) -> ArrowTerm:
    """Canonical term for a relation: a right-nested union of iota terms in
    ascending pair order, or the zero term when the relation is empty."""
    if not nf.pairs:
        return zero_term(nf.n, nf.m, Category.RB)
    term: ArrowTerm | None = None
    for i, j in sorted(nf.pairs, reverse=True):
        single = iota_term(i, j, nf.n, nf.m)
        term = single if term is None else union_term(single, term)
    assert term is not None
    return term


# Per category: the kind ``normalize`` prints, the normal form, its term.
NORMAL_FORMS = {
    Category.PF: ("eta", eta_nf, eta_nf_term),
    Category.EF: ("etabar", etabar_nf, etabar_nf_term),
    Category.RB: ("iota", iota_nf, iota_nf_term),
}
