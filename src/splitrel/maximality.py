"""Separating contexts witnessing that non-theorems collapse the theory.

For any two terms of the same type whose values differ, a small context
(pre, post) makes the difference visible at a fixed tiny type: composing
either term with the context and evaluating yields two distinct values
of type 1 -> 1 (when the differing pair crosses from source to target)
or 2 -> 0 / 0 -> 2 (when it stays on one side).  Adding the equation
v = w as an axiom therefore forces an equation between those small
values, and from there every parallel pair of arrows collapses.

Both terms and both composites evaluate to the evaluator's bit rows
through one memo.  The pivot is the first flat row where the two values
differ and the lowest bit of that row's difference.  Split rows list the
sources before the targets, which is the order of `Node` pairs, so the
pivot is the least pair on which the values disagree.  The `Node` view
is built only for the pivot and the two results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .dsl import print_term
from .relations import src, tgt
from .semantics import Rows, SemValue, _boundary, _rows, resolve_category
from .terms import (
    ArrowTerm,
    Category,
    Id,
    TermTypeError,
    compose_chain,
    counit_power,
    pad,
    plus,
    unit_power,
)

__all__ = [
    "SeparationWitness",
    "separate",
    "separate_ef",
    "separate_pf",
    "separate_rb",
]


@dataclass(frozen=True)
class SeparationWitness:
    """A context whose composites with two given terms differ in value.

    `results` holds the values of post . v . pre and post . w . pre, in
    that order; `pivot` is the least semantic pair on which the two
    term values disagree.
    """

    category: Category
    pivot: tuple
    pre: ArrowTerm
    post: ArrowTerm
    results: tuple[SemValue, SemValue]

    @property
    def context(self) -> tuple[ArrowTerm, ArrowTerm]:
        return self.pre, self.post

    def to_json_obj(self) -> dict:
        if self.category is Category.RB:
            pivot = list(self.pivot)
        else:
            pivot = [list(node) for node in self.pivot]
        return {
            "category": self.category.name,
            "pivot": pivot,
            "pre": print_term(self.pre),
            "post": print_term(self.post),
            "results": [value.to_json_obj() for value in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def _values(
    v: ArrowTerm, w: ArrowTerm, category: Category, memo: dict
) -> tuple[Rows, Rows]:
    rows = [_rows(v, category, memo), _rows(w, category, memo)]
    (vn, vm, _), (wn, wm, _) = rows
    if (vn, vm) != (wn, wm):
        raise TermTypeError(
            f"cannot separate terms of different types {vn}->{vm} "
            f"and {wn}->{wm}"
        )
    if rows[0] == rows[1]:
        raise ValueError("the terms are equal; there is nothing to separate")
    return rows[0], rows[1]


def _route(
    power: Callable[[int, Category], ArrowTerm],
    a: int,
    b: int,
    size: int,
    category: Category,
) -> ArrowTerm:
    """Keep strands a <= b of `size` (one strand when a == b); `power`
    (`unit_power` or `counit_power`) fills or deletes all the others."""
    middle = Id(1) if a == b else pad(1, power(b - a - 1, category), 1)
    return plus(
        plus(power(a, category), middle), power(size - b - 1, category)
    )


def separate(
    v: ArrowTerm, w: ArrowTerm, category: Category
) -> SeparationWitness:
    """Witness for two terms of the same type whose values in `category`
    differ; `separate_pf`, `separate_ef` and `separate_rb` fix the
    category."""
    resolve_category(v, category=category)
    resolve_category(w, category=category)
    return _separate(v, w, category, {})


def _separate(
    v: ArrowTerm, w: ArrowTerm, category: Category, memo: dict
) -> SeparationWitness:
    """`separate` for terms known to be in `category`, evaluating through
    `memo`, which may already hold their rows."""
    (n, m, v_rows), (_, _, w_rows) = _values(v, w, category, memo)
    # the first flat row where the values differ, and its lowest such bit
    x, diff = next(
        (x, a ^ b) for x, (a, b) in enumerate(zip(v_rows, w_rows)) if a != b
    )
    y = (diff & -diff).bit_length() - 1
    if category is Category.RB:
        pivot = (x, y)
        y += n  # an RB row holds target bits
    else:
        nodes = [src(i) for i in range(n)] + [tgt(j) for j in range(m)]
        pivot = (nodes[x], nodes[y])
    a, b = sorted((x, y))
    if a < n <= b:
        pre = _route(unit_power, a, a, n, category)
        post = _route(counit_power, b - n, b - n, m, category)
        width = 1
    elif b < n:
        pre = _route(unit_power, a, b, n, category)
        post = counit_power(m, category)
        width = 2
    else:
        pre = unit_power(n, category)
        post = _route(counit_power, a - n, b - n, m, category)
        width = 0
    results = tuple(
        _boundary(
            _rows(compose_chain([pre, t, post], width), category, memo),
            category,
        )
        for t in (v, w)
    )
    return SeparationWitness(category, pivot, pre, post, results)


def separate_rb(v: ArrowTerm, w: ArrowTerm) -> SeparationWitness:
    """Witness for two relational terms of the same type with Gv != Gw.

    The two results are always the identity relation on 1 and the empty
    relation on 1, in the order induced by which term holds the pivot.
    """
    return separate(v, w, Category.RB)


def separate_ef(v: ArrowTerm, w: ArrowTerm) -> SeparationWitness:
    """Witness for two equivalence-style terms with different values.

    A source/target pivot gives 1 -> 1 results differing in the cross
    link; a same-side pivot gives 2 -> 0 (or 0 -> 2) results, one of
    which merges the two routed points while the other keeps them
    apart.
    """
    return separate(v, w, Category.EF)


def separate_pf(v: ArrowTerm, w: ArrowTerm) -> SeparationWitness:
    """Witness for two preorder-style terms with different values.

    The pivot pair is ordered, so a cross pivot distinguishes the
    downward from the upward link; the 1 -> 1 results land in the four
    element family (discrete, down only, up only, both).
    """
    return separate(v, w, Category.PF)
