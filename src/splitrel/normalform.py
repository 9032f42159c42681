"""Canonical normal forms: eta form for preorder and equivalence terms,
iota form for relational terms.

A normal form here is a plain payload (counts plus a sorted tuple of pairs),
together with a reconstruction that turns the payload back into a canonical
term.  Two terms denote the same arrow exactly when their payloads coincide,
so the payloads double as decision procedure.

Payloads are read from the evaluator's bit rows, with no pair set in
between: the eta form keeps each set bit j != i of flat row i (sources,
then targets), the overlined eta form those with i < j, and the iota form
every target bit j of source row i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from .relations import flat_pairs
from .semantics import _rows
from .terms import (
    ArrowTerm,
    Category,
    Perm,
    TermType,
    TermTypeError,
    _union,
    category_of,
    compose_chain,
    counit_power,
    eta_term,
    etabar_term,
    iota_term,
    pad,
    perm_factors,
    perm_term,
    unit_power,
    zero_term,
)

__all__ = [
    "Perm",
    "perm_factors",
    "perm_term",
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
class _EtaPayload:
    # The fields, validator and JSON form shared by EtaNF and EtaBarNF.
    n: int
    m: int
    etas: tuple[tuple[int, int], ...]
    # pairs are the links of an equivalence, stored as (min, max)
    _unordered: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError("negative arity")
        _check_pair_field(self.etas)
        width = self.n + self.m
        unordered = self._unordered
        for i, j in self.etas:
            if not (0 <= i < width and 0 <= j < width):
                raise ValueError(f"eta pair ({i}, {j}) out of range for {width} strands")
            if unordered and i >= j:
                raise ValueError(f"unordered pair must be stored as (min, max): ({i}, {j})")
            if i == j:
                raise ValueError(f"eta pair may not repeat a strand: ({i}, {j})")
        links = self.etas
        if unordered:
            links += tuple((j, i) for i, j in self.etas)
        present = set(links)
        for a, b in links:
            for c, d in links:
                if b != c or a == d or (a, d) in present:
                    continue
                if unordered:
                    raise ValueError(
                        f"pairs do not close into cliques: {{{a}, {b}}} and "
                        f"{{{c}, {d}}} demand {{{a}, {d}}}"
                    )
                raise ValueError(
                    f"not closed for strict transitivity: ({a}, {b}) and "
                    f"({c}, {d}) demand ({a}, {d})"
                )

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "etas": [list(p) for p in self.etas]}

    @classmethod
    def from_json(cls, data: dict):
        etas = tuple(sorted((int(i), int(j)) for i, j in data["etas"]))
        return cls(int(data["n"]), int(data["m"]), etas)


@dataclass(frozen=True, slots=True)
class EtaNF(_EtaPayload):
    """Eta normal form payload for a preorder term n -> m.

    ``etas`` lists ordered pairs (i, j) over the n + m flattened strands:
    positions 0..n-1 are the sources, n..n+m-1 the targets.  The set is the
    strict part of the denoted split preorder, so it is closed under
    composition of distinct endpoints.
    """


@dataclass(frozen=True, slots=True)
class EtaBarNF(_EtaPayload):
    """Eta normal form payload for an equivalence term.

    Pairs are unordered; each is stored as (min, max).  Closure means every
    connected component of the pair graph is a clique.
    """

    _unordered = True


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


def _expect_category(t: ArrowTerm, home: Category, what: str) -> None:
    cat = category_of(t, default=home)
    if cat is not home:
        raise TermTypeError(f"{what} needs a {home.name} term, got {cat.name}")


def eta_nf(t: ArrowTerm) -> EtaNF:
    """Eta normal form of a preorder term: its strict pairs, flattened so
    source strand k becomes k and target strand k becomes n + k."""
    _expect_category(t, Category.PF, "eta normal form")
    n, m, rows = _rows(t, Category.PF, {})
    return EtaNF(n, m, tuple((i, j) for i, j in flat_pairs(rows) if i != j))


def etabar_nf(t: ArrowTerm) -> EtaBarNF:
    """Eta normal form of an equivalence term, with unordered pairs."""
    _expect_category(t, Category.EF, "overlined eta normal form")
    n, m, rows = _rows(t, Category.EF, {})
    return EtaBarNF(n, m, tuple((i, j) for i, j in flat_pairs(rows) if i < j))


def iota_nf(t: ArrowTerm) -> IotaNF:
    """Iota normal form of a relational term: simply its relation."""
    _expect_category(t, Category.RB, "iota normal form")
    n, m, rows = _rows(t, Category.RB, {})
    return IotaNF(n, m, tuple(flat_pairs(rows)))


def _eta_chain(
    nf: _EtaPayload,
    bridge: Callable[[int, int, int], ArrowTerm],
    category: Category,
) -> ArrowTerm:
    width = nf.n + nf.m
    factors: list[ArrowTerm] = [pad(nf.n, unit_power(nf.m, category), 0)]
    for i, j in sorted(nf.etas, reverse=True):
        factors.append(bridge(i, j, width))
    factors.append(pad(0, counit_power(nf.n, category), nf.m))
    return compose_chain(factors, nf.n)


def eta_nf_term(nf: EtaNF) -> ArrowTerm:
    """Canonical term for an eta payload.

    The eta factors sit between a block of units and a block of counits;
    factors are right-nested so the printed composition lists the pairs in
    ascending order.
    """
    return _eta_chain(nf, eta_term, Category.PF)


def etabar_nf_term(nf: EtaBarNF) -> ArrowTerm:
    """Canonical term for an unordered eta payload, built from overlined
    eta factors."""
    return _eta_chain(nf, etabar_term, Category.EF)


def iota_nf_term(nf: IotaNF) -> ArrowTerm:
    """Canonical term for a relation: a right-nested union of iota terms in
    ascending pair order, or the zero term when the relation is empty."""
    if not nf.pairs:
        return zero_term(nf.n, nf.m, Category.RB)
    term: ArrowTerm | None = None
    term_type = TermType(nf.n, nf.m)
    for i, j in sorted(nf.pairs, reverse=True):
        single = iota_term(i, j, nf.n, nf.m)
        term = single if term is None else _union(single, term, term_type)
    assert term is not None
    return term


# Per category: the kind ``normalize`` prints, the normal form, its term.
NORMAL_FORMS = {
    Category.PF: ("eta", eta_nf, eta_nf_term),
    Category.EF: ("etabar", etabar_nf, etabar_nf_term),
    Category.RB: ("iota", iota_nf, iota_nf_term),
}
