"""Named equational axioms with enumeration, checking and rewriting.

Every entry pairs a slug with a builder producing the two sides of the
equation from integer parameters.

The concrete axioms, whose only parameters are the trailing
``lpad``/``rpad``, are equations in the term language of `dsl`, one
``name: lhs = rhs`` line each.  An instance is the equation widened by
``lpad`` and ``rpad`` untouched strands, so padded occurrences can be
matched and rewritten in place.  The lines come in blocks, in catalog
order: the symmetry core and the Frobenius block, shared by PF and EF;
the `h` laws, the `down` laws and `h-tr` of PF; the `hbar` laws of EF.
A word bound to a derived arrow of `terms` reads as that arrow in
brackets: in PF `merge`, `split`, `down`, `up`, `upalt`, `mergedown` and
`splitdown` are `nabla_pf`, `delta_pf`, `down_pf`, `up_pf`, `up_pf_alt`,
`nabla_down_pf` and `delta_down_pf`; in EF `merge` and `split` are
`nabla_ef` and `delta_ef`.  `dsl.parse` reads an axiom's two sides, in
its block's signature, the first time the axiom is instantiated, and
they are kept; importing the module, listing the catalogs and
enumerating instances parse nothing.

The parametric and schema axioms stay code: the pool, bridge and mask
families, which range over sample arrows, strands or selections on their
own; `h-via-nabla`, `h-def`, `hbar-def`, `hbar-eta` and `etabar-sym`,
whose strand positions are parameters; and the whole RB catalog.

Arrows that many instances share are built once per process: the
sample relations `_rel` of the union and plus families (24 of them), and
each signature's bridge arrows `e(i, j, width)` in `_bridge_family`,
kept in a cache of `_BRIDGE_ARROWS` entries, since `tau-def` asks for
ever wider ones as the parameter bound grows.  Sharing is safe because
terms are frozen and every builder, `pad`, `apply_axiom` included,
makes new nodes around a shared one instead of changing it.  Whole
instances are not kept: `check-axioms` builds each of them once, so
such a cache would only hold memory.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .dsl import parse, print_term
from .normalform import IotaNF, iota_nf_term
from .semantics import equal
from .terms import (
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
    _sum,
    _union,
    category_of,
    compose_chain,
    delta_down_pf,
    delta_ef,
    delta_pf,
    delta_unfold,
    down_pf,
    eta_term,
    etabar_term,
    h_via_nabla,
    iota_term,
    nabla_down_pf,
    nabla_ef,
    nabla_pf,
    nabla_unfold,
    natural_term,
    pad,
    plus,
    tau_acute,
    tau_grave,
    tau_rb,
    tau_rb_alt,
    type_of,
    union_term,
    up_pf,
    up_pf_alt,
    zero_term,
)

__all__ = [
    "Axiom",
    "apply_axiom",
    "axiom_catalog",
    "axiom_named",
    "catalog_json",
    "check_axiom",
    "instances",
    "instantiate",
]

_Pair = tuple[ArrowTerm, ArrowTerm]


@dataclass(frozen=True)
class Axiom:
    """One equation schema of a single category.

    ``build`` maps the core (non-padding) parameters to the two sides.
    When ``padded`` is set the public parameter list ends with ``lpad``
    and ``rpad`` and each instance is the equation widened by that many
    untouched strands on either side.
    """

    name: str
    category: Category
    params: tuple[str, ...]
    build: Callable[..., _Pair]
    guard: Callable[..., bool] | None = None
    ranges: Callable[[int], Iterator[tuple[int, ...]]] | None = None
    padded: bool = False


def instantiate(axiom: Axiom, params: Sequence[int] = ()) -> _Pair:
    """Both sides of the axiom at the given parameter values."""
    values = tuple(int(v) for v in params)
    if len(values) != len(axiom.params):
        names = ", ".join(axiom.params) or "none"
        raise ValueError(
            f"axiom {axiom.name!r} takes parameters ({names}), "
            f"got {len(values)} value(s)"
        )
    if any(v < 0 for v in values):
        raise ValueError("axiom parameters must be non-negative")
    core = values[:-2] if axiom.padded else values
    if axiom.guard is not None and not axiom.guard(*core):
        raise ValueError(
            f"parameters {values} are not admissible for axiom {axiom.name!r}"
        )
    lhs, rhs = axiom.build(*core)
    if axiom.padded:
        left, right = values[-2:]
        lhs, rhs = pad(left, lhs, right), pad(left, rhs, right)
    return lhs, rhs


def instances(axiom: Axiom, max_param: int = 3) -> Iterator[tuple[int, ...]]:
    """All admissible parameter tuples with entries bounded by max_param.

    Pool-indexing and selection-mask parameters run over their own fixed
    ranges, independent of the bound.
    """
    cores: Iterable[tuple[int, ...]]
    if axiom.ranges is not None:
        cores = axiom.ranges(max_param)
    else:
        width = len(axiom.params) - (2 if axiom.padded else 0)
        cores = itertools.product(range(max_param + 1), repeat=width)
        if axiom.guard is not None:
            guard = axiom.guard
            cores = (c for c in cores if guard(*c))
    if not axiom.padded:
        yield from (tuple(c) for c in cores)
        return
    pads = range(max_param + 1)
    for core in cores:
        for left in pads:
            for right in pads:
                yield tuple(core) + (left, right)


def check_axiom(
    axiom: Axiom, max_param: int = 3
) -> tuple[int, list[tuple[int, ...]]]:
    """Evaluate every instance; returns (checked, failing parameter tuples)."""
    checked = 0
    failing: list[tuple[int, ...]] = []
    for params in instances(axiom, max_param):
        lhs, rhs = instantiate(axiom, params)
        checked += 1
        if not equal(lhs, rhs, axiom.category):
            failing.append(params)
    return checked, failing


def axiom_named(name: str, category: Category) -> Axiom:
    for axiom in axiom_catalog(category):
        if axiom.name == name:
            return axiom
    raise ValueError(f"no axiom named {name!r} in the {category.name} catalog")


def catalog_json(category: Category, max_param: int = 3) -> list[dict]:
    """Catalog entries with both sides printed at their smallest instance."""
    entries = []
    for axiom in axiom_catalog(category):
        smallest = next(iter(instances(axiom, max_param)))
        lhs, rhs = instantiate(axiom, smallest)
        entries.append(
            {
                "name": axiom.name,
                "category": axiom.category.name,
                "params": list(axiom.params),
                "lhs": print_term(lhs),
                "rhs": print_term(rhs),
            }
        )
    return entries


# --------------------------------------------------------------------
# rewriting


def apply_axiom(
    t: ArrowTerm,
    axiom: Axiom,
    params: Sequence[int] = (),
    position: Sequence[int] = (),
    direction: str = "lr",
) -> ArrowTerm:
    """Rewrite the subterm of `t` at `position` with an axiom instance.

    Position steps select children: in a composition 0 is the later
    factor and 1 the earlier one, in a padding 0 is the body.  Direction
    "lr" replaces an occurrence of the left side by the right side,
    "rl" the reverse.
    """
    if direction not in ("lr", "rl"):
        raise ValueError(f"direction must be 'lr' or 'rl', got {direction!r}")
    resolved = category_of(t, default=axiom.category)
    if resolved is not axiom.category:
        raise TermTypeError(
            f"axiom {axiom.name!r} belongs to {axiom.category.name}, "
            f"the term lives in {resolved.name}"
        )
    lhs, rhs = instantiate(axiom, params)
    src, dst = (lhs, rhs) if direction == "lr" else (rhs, lhs)
    return _rewrite(t, tuple(position), src, dst, axiom.name)


def _rewrite(
    t: ArrowTerm,
    position: tuple[int, ...],
    src: ArrowTerm,
    dst: ArrowTerm,
    name: str,
) -> ArrowTerm:
    if not position:
        if t != src:
            raise ValueError(
                f"the term at the given position is not an instance "
                f"of the left side of {name!r}"
            )
        return dst
    step, rest = position[0], position[1:]
    match t:
        case Comp(after, before):
            if step == 0:
                return Comp(_rewrite(after, rest, src, dst, name), before)
            if step == 1:
                return Comp(after, _rewrite(before, rest, src, dst, name))
            raise ValueError(f"composition step must be 0 or 1, got {step}")
        case Pad(left, body, right):
            if step == 0:
                return pad(left, _rewrite(body, rest, src, dst, name), right)
            raise ValueError(f"padding step must be 0, got {step}")
        case _:
            raise ValueError("position descends below a leaf")


# --------------------------------------------------------------------
# builder helpers


def _pool_ranges(pool: Sequence[ArrowTerm]) -> Callable[[int], Iterator]:
    def gen(max_param: int) -> Iterator[tuple[int, ...]]:
        return ((i,) for i in range(len(pool)))

    return gen


def _pick(pool: Sequence[ArrowTerm], i: int) -> ArrowTerm:
    if not 0 <= i < len(pool):
        raise ValueError(f"sample index {i} out of range")
    return pool[i]


# --------------------------------------------------------------------
# families shared between categories


def _pool_family(
    category: Category,
    pool: tuple[ArrowTerm, ...],
    gens: tuple[ArrowTerm, ...],
) -> list[Axiom]:
    """Identity laws over a pool of sample arrows, and the padding slide
    of every pair of generators."""

    def cat_left(i: int) -> _Pair:
        f = _pick(pool, i)
        return Comp(Id(type_of(f).tgt), f), f

    def cat_right(i: int) -> _Pair:
        f = _pick(pool, i)
        return Comp(f, Id(type_of(f).src)), f

    def slide(a: int, b: int, r: int) -> _Pair:
        xi, theta = _pick(gens, a), _pick(gens, b)
        p, q = type_of(xi)
        k, l = type_of(theta)
        lhs = compose_chain([pad(0, xi, r + k), pad(q + r, theta, 0)], p + r + k)
        rhs = compose_chain([pad(p + r, theta, 0), pad(0, xi, r + l)], p + r + k)
        return lhs, rhs

    def slide_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        count = len(gens)
        return itertools.product(range(count), range(count), range(max_param + 1))

    return [
        Axiom("cat-1-left", category, ("f",), cat_left, ranges=_pool_ranges(pool)),
        Axiom("cat-1-right", category, ("f",), cat_right, ranges=_pool_ranges(pool)),
        Axiom("fl", category, ("xi", "theta", "r"), slide, ranges=slide_ranges),
    ]


# Bridge arrows each signature's `_bridge_family` keeps: its families use
# 90 distinct `(i, j, width)` at parameter bound 3.  Only `tau-def` asks
# for wider ones as the bound grows, each once, so they cycle through.
_BRIDGE_ARROWS = 128


def _bridge_family(
    category: Category,
    e: Callable[[int, int, int], ArrowTerm],
) -> list[Axiom]:
    """Toolkit for single-pair bridge arrows on numbered strands.

    With symmetric bridges (the equivalence setting) a deleted strand
    carrying two or more bridges glues its neighbours to each other, so
    the bare selection laws are restricted there to a single bridge; the
    multi-bridge cases are covered by the cross-pair law, whose right
    side generates that same glueing.
    """
    symmetric = category is Category.EF
    e = functools.lru_cache(maxsize=_BRIDGE_ARROWS)(e)

    def drop(v: int, p: int) -> int:
        return v - 1 if v > p else v

    def tau_def(n: int, m: int) -> _Pair:
        width = n + 3 + m
        lhs = pad(n, Swap(), m)
        rhs = compose_chain(
            [
                pad(n + 2, Unit(), m),
                e(n, n + 2, width),
                e(n + 2, n, width),
                pad(n, Counit(), 2 + m),
            ],
            n + 2 + m,
        )
        return lhs, rhs

    def eta_unit(i: int, j: int, p: int, q: int) -> _Pair:
        width = p + 1 + q
        lhs = compose_chain([pad(p, Unit(), q), e(i, j, width)], width - 1)
        rhs = compose_chain(
            [e(drop(i, p), drop(j, p), width - 1), pad(p, Unit(), q)],
            width - 1,
        )
        return lhs, rhs

    def eta_counit(i: int, j: int, p: int, q: int) -> _Pair:
        width = p + 1 + q
        lhs = compose_chain([e(i, j, width), pad(p, Counit(), q)], width)
        rhs = compose_chain(
            [pad(p, Counit(), q), e(drop(i, p), drop(j, p), width - 1)],
            width,
        )
        return lhs, rhs

    def shift_guard(i: int, j: int, p: int, q: int) -> bool:
        return i != j and min(i, j) < p < max(i, j) and max(i, j) <= p + q

    def shift_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        top = min(max_param, 3)
        for p in range(top + 1):
            for q in range(top + 1):
                width = p + 1 + q
                for i in range(width):
                    for j in range(width):
                        if shift_guard(i, j, p, q):
                            yield (i, j, p, q)

    def eta_idemp(i: int, j: int, width: int) -> _Pair:
        step = e(i, j, width)
        return Comp(step, step), step

    def idemp_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for width in range(2, min(max_param, 4) + 1):
            for i in range(width):
                for j in range(width):
                    if i != j:
                        yield (i, j, width)

    def eta_perm(i: int, j: int, k: int, l: int, width: int) -> _Pair:
        lhs = compose_chain([e(k, l, width), e(i, j, width)], width)
        rhs = compose_chain([e(i, j, width), e(k, l, width)], width)
        return lhs, rhs

    def perm_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for width in range(2, min(max_param, 3) + 1):
            pairs = [
                (i, j)
                for i in range(width)
                for j in range(width)
                if i != j
            ]
            for (i, j), (k, l) in itertools.product(pairs, pairs):
                yield (i, j, k, l, width)

    def selections(total: int) -> Iterator[int]:
        return iter(range(1, 1 << total))

    def kl_parts(p: int, q: int, mask: int) -> list[int]:
        others = [s for s in range(p + 1 + q) if s != p]
        if not 0 < mask < 1 << len(others):
            raise ValueError(f"selection mask {mask} out of range")
        return [others[k] for k in range(len(others)) if mask >> k & 1]

    def eta_kl(p: int, q: int, into: int, outof: int) -> _Pair:
        width = p + 1 + q
        sources = kl_parts(p, q, into)
        sinks = kl_parts(p, q, outof)
        factors: list[ArrowTerm] = [pad(p, Unit(), q)]
        factors += [e(p, r, width) for r in sorted(sinks, reverse=True)]
        factors += [e(m, p, width) for m in sorted(sources, reverse=True)]
        factors.append(pad(p, Counit(), q))
        lhs = compose_chain(factors, p + q)
        pairs = sorted(
            {
                (drop(m, p), drop(r, p))
                for m in sources
                for r in sinks
                if drop(m, p) != drop(r, p)
            }
        )
        rhs = compose_chain(
            [e(a, b, p + q) for a, b in sorted(pairs, reverse=True)],
            p + q,
        )
        return lhs, rhs

    def kl_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for total in range(2, 5):
            for p in range(total + 1):
                for into in selections(total):
                    for outof in selections(total):
                        yield (p, total - p, into, outof)

    def eta_k0(p: int, q: int, into: int) -> _Pair:
        width = p + 1 + q
        sources = kl_parts(p, q, into)
        factors: list[ArrowTerm] = [pad(p, Unit(), q)]
        factors += [e(m, p, width) for m in sorted(sources, reverse=True)]
        factors.append(pad(p, Counit(), q))
        return compose_chain(factors, p + q), Id(p + q)

    def eta_0l(p: int, q: int, outof: int) -> _Pair:
        width = p + 1 + q
        sinks = kl_parts(p, q, outof)
        factors: list[ArrowTerm] = [pad(p, Unit(), q)]
        factors += [e(p, r, width) for r in sorted(sinks, reverse=True)]
        factors.append(pad(p, Counit(), q))
        return compose_chain(factors, p + q), Id(p + q)

    def sel_guard(p: int, q: int, mask: int) -> bool:
        return not symmetric or mask.bit_count() == 1

    def sel_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for total in range(1, 5):
            for p in range(total + 1):
                for mask in selections(total):
                    if sel_guard(p, total - p, mask):
                        yield (p, total - p, mask)

    def eta_tr(m: int, p: int, r: int, width: int) -> _Pair:
        lhs = compose_chain([e(p, r, width), e(m, p, width)], width)
        rhs = compose_chain([e(m, r, width), e(p, r, width), e(m, p, width)], width)
        return lhs, rhs

    def tr_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for width in range(3, min(max_param, 4) + 1):
            for m, p, r in itertools.permutations(range(width), 3):
                yield (m, p, r, width)

    def natural(n: int) -> _Pair:
        return natural_term(n, category), Id(n)

    def natural_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        return ((n,) for n in range(1, max_param + 1))

    return [
        Axiom("tau-def", category, ("n", "m"), tau_def),
        Axiom("eta-unit", category, ("i", "j", "p", "q"), eta_unit,
              guard=shift_guard, ranges=shift_ranges),
        Axiom("eta-counit", category, ("i", "j", "p", "q"), eta_counit,
              guard=shift_guard, ranges=shift_ranges),
        Axiom("eta-idemp", category, ("i", "j", "n"), eta_idemp, ranges=idemp_ranges),
        Axiom("eta-perm", category, ("i", "j", "k", "l", "n"), eta_perm,
              ranges=perm_ranges),
        Axiom("eta-kl", category, ("p", "q", "into", "outof"), eta_kl,
              ranges=kl_ranges),
        Axiom("eta-k-zero", category, ("p", "q", "into"), eta_k0,
              guard=sel_guard, ranges=sel_ranges),
        Axiom("eta-zero-l", category, ("p", "q", "outof"), eta_0l,
              guard=sel_guard, ranges=sel_ranges),
        Axiom("eta-tr", category, ("m", "p", "r", "n"), eta_tr,
              guard=lambda m, p, r, n: len({m, p, r}) == 3 and max(m, p, r) < n,
              ranges=tr_ranges),
        Axiom("natural-id", category, ("n",), natural, ranges=natural_ranges),
    ]


# --------------------------------------------------------------------
# concrete equations


_SYMMETRY = """
tau-tau: swap . swap = id(2)
tau-yb: pad(1, swap, 0) . pad(0, swap, 1) . pad(1, swap, 0) = pad(0, swap, 1) . pad(1, swap, 0) . pad(0, swap, 1)
tau-unit: swap . pad(0, unit, 1) = pad(1, unit, 0)
tau-counit: pad(0, counit, 1) . swap = pad(1, counit, 0)
zero-zero: counit . unit = id(0)
"""

_FROBENIUS = """
nabla-assoc: merge . pad(0, merge, 1) = merge . pad(1, merge, 0)
nabla-unit-left: merge . pad(0, unit, 1) = id(1)
nabla-unit-right: merge . pad(1, unit, 0) = id(1)
delta-assoc: pad(0, split, 1) . split = pad(1, split, 0) . split
delta-counit-left: pad(0, counit, 1) . split = id(1)
delta-counit-right: pad(1, counit, 0) . split = id(1)
frobenius-left: pad(1, merge, 0) . pad(0, split, 1) = split . merge
frobenius-right: pad(0, merge, 1) . pad(1, split, 0) = split . merge
nabla-tau: merge . swap = merge
tau-delta: swap . split = split
nabla-swap: swap . pad(0, merge, 1) = pad(1, merge, 0) . pad(0, swap, 1) . pad(1, swap, 0)
delta-swap: pad(0, split, 1) . swap = pad(1, swap, 0) . pad(0, swap, 1) . pad(1, split, 0)
separability: merge . split = id(1)
"""

_H_LAWS = """
h-idemp: h . h = h
h-yb: pad(1, swap, 0) . pad(0, h, 1) . pad(1, swap, 0) = pad(0, swap, 1) . pad(1, h, 0) . pad(0, swap, 1)
h-com-left: swap . h . swap . h = h . swap . h
h-com-right: h . swap . h . swap = h . swap . h
h-bond: pad(0, counit, 1) . h . swap . h . pad(0, unit, 1) = id(1)
h-bond-alt: pad(1, counit, 0) . h . swap . h . pad(1, unit, 0) = id(1)
hh: pad(1, h, 0) . pad(0, h, 1) = pad(0, h, 1) . pad(1, h, 0)
hh-in: pad(0, swap, 1) . pad(1, h, 0) . pad(0, swap, 1) . pad(1, h, 0) = pad(1, h, 0) . pad(0, swap, 1) . pad(1, h, 0) . pad(0, swap, 1)
hh-out: pad(1, swap, 0) . pad(0, h, 1) . pad(1, swap, 0) . pad(0, h, 1) = pad(0, h, 1) . pad(1, swap, 0) . pad(0, h, 1) . pad(1, swap, 0)
h-two-zero: pad(2, counit, 0) . pad(1, h, 0) . pad(0, swap, 1) . pad(1, h, 0) . pad(2, unit, 0) = swap
h-zero-two: pad(0, counit, 2) . pad(0, h, 1) . pad(1, swap, 0) . pad(0, h, 1) . pad(0, unit, 2) = swap
h-two-two: pad(2, counit, 2) . pad(2, h, 1) . pad(1, h, 2) . pad(3, swap, 0) . pad(0, swap, 3) . pad(2, h, 1) . pad(1, h, 2) . pad(2, unit, 2) = pad(1, h, 1) . pad(2, swap, 0) . pad(1, h, 1) . pad(2, swap, 0) . pad(0, swap, 2) . pad(1, h, 1) . pad(2, swap, 0) . pad(1, h, 1)
"""

_DOWN_LAWS = """
down-idemp: down . down = down
down-tau: swap . pad(0, down, 1) = pad(1, down, 0) . swap
up-alt: up = upalt
up-down: merge . pad(1, down, 0) . pad(0, up, 1) . split = id(1)
down-two-zero: counit . mergedown = counit . pad(1, counit, 0)
down-zero-two: splitdown . unit = pad(1, unit, 0) . unit
down-two-two: splitdown . mergedown = pad(1, mergedown, 0) . pad(0, mergedown, 2) . pad(1, swap, 1) . pad(2, splitdown, 0) . pad(0, splitdown, 1)
down-separability: mergedown . splitdown = down
down-two-one: down . mergedown = mergedown
down-one-two: splitdown . down = splitdown
down-zero-one: down . unit = unit
down-one-zero: counit . down = counit
nabla-circ: merge = merge . pad(1, down . merge . pad(0, down, 1), 0) . pad(0, split, 1)
"""

_H_TR = """
h-tr: pad(0, h, 1) . pad(1, h, 0) = pad(0, h, 1) . pad(1, h, 0) . eta(0, 2, 3)
"""

_HBAR_LAWS = """
hbar-idemp: hbar . hbar = hbar
hbar-yb: pad(1, swap, 0) . pad(0, hbar, 1) . pad(1, swap, 0) = pad(0, swap, 1) . pad(1, hbar, 0) . pad(0, swap, 1)
hbar-com-left: swap . hbar = hbar
hbar-com-right: hbar . swap = hbar
hbar-bond: pad(0, counit, 1) . hbar . pad(0, unit, 1) = id(1)
hbar-bond-alt: pad(1, counit, 0) . hbar . pad(1, unit, 0) = id(1)
hbar-hbar: pad(1, hbar, 0) . pad(0, hbar, 1) = pad(0, hbar, 1) . pad(1, hbar, 0)
nabla-consistency: merge = pad(0, counit, 1) . split . merge
delta-consistency: split = split . merge . pad(0, unit, 1)
"""

_PF_WORDS: dict[str, Callable[[], ArrowTerm]] = {
    "merge": nabla_pf,
    "split": delta_pf,
    "down": down_pf,
    "up": up_pf,
    "upalt": up_pf_alt,
    "mergedown": nabla_down_pf,
    "splitdown": delta_down_pf,
}

_EF_WORDS: dict[str, Callable[[], ArrowTerm]] = {"merge": nabla_ef, "split": delta_ef}


def _equations(
    category: Category, words: dict[str, Callable[[], ArrowTerm]], *tables: str
) -> list[Axiom]:
    """A padded axiom for each line of `tables`, its sides parsed in
    `category` when it is first instantiated."""

    def read(side: str) -> ArrowTerm:
        def arrow(word: re.Match) -> str:
            bound = words.get(word[0])
            return word[0] if bound is None else f"({print_term(bound())})"

        return parse(re.sub("[a-z]+", arrow, side), category)

    def sides(equation: str) -> Callable[[], _Pair]:
        lhs, rhs = equation.split(" = ")
        return functools.cache(lambda: (read(lhs), read(rhs)))

    lines = [line for table in tables for line in table.strip().splitlines()]
    return [
        Axiom(name, category, ("lpad", "rpad"), sides(equation), padded=True)
        for name, equation in (line.split(": ") for line in lines)
    ]


# --------------------------------------------------------------------
# preorder catalog


_PF_POOL: tuple[ArrowTerm, ...] = (
    Id(0),
    Id(1),
    Unit(),
    Counit(),
    Swap(),
    H(),
    nabla_pf(),
    delta_pf(),
    down_pf(),
    eta_term(0, 2, 3),
    pad(1, H(), 1),
    Comp(H(), Swap()),
)

_PF_GENS: tuple[ArrowTerm, ...] = (Unit(), Counit(), Swap(), H())


def _pf_axioms() -> list[Axiom]:
    pf = Category.PF
    axioms = _pool_family(pf, _PF_POOL, _PF_GENS)
    axioms += _equations(pf, _PF_WORDS, _SYMMETRY, _H_LAWS, _FROBENIUS, _DOWN_LAWS)
    axioms += [
        Axiom(
            "h-via-nabla", pf, ("n", "m"),
            lambda n, m: (pad(n, H(), m), h_via_nabla(n, m)),
        ),
        Axiom(
            "h-def", pf, ("n", "m"),
            lambda n, m: (pad(n, H(), m), eta_term(n, n + 1, n + 2 + m)),
        ),
    ]
    axioms += _equations(pf, _PF_WORDS, _H_TR)
    axioms += _bridge_family(pf, eta_term)
    return axioms


# --------------------------------------------------------------------
# equivalence catalog


_EF_POOL: tuple[ArrowTerm, ...] = (
    Id(0),
    Id(1),
    Unit(),
    Counit(),
    Swap(),
    HBar(),
    nabla_ef(),
    delta_ef(),
    etabar_term(0, 2, 3),
    pad(1, HBar(), 1),
    Comp(HBar(), Swap()),
)

_EF_GENS: tuple[ArrowTerm, ...] = (Unit(), Counit(), Swap(), HBar())


def _ef_axioms() -> list[Axiom]:
    ef = Category.EF
    axioms = _pool_family(ef, _EF_POOL, _EF_GENS)
    axioms += _equations(ef, _EF_WORDS, _SYMMETRY, _HBAR_LAWS)
    axioms += [
        Axiom(
            "hbar-def", ef, ("n", "m"),
            lambda n, m: (
                pad(n, HBar(), m),
                compose_chain(
                    [pad(n, nabla_ef(), m), pad(n, delta_ef(), m)],
                    n + 2 + m,
                ),
            ),
        ),
        Axiom(
            "hbar-eta", ef, ("n", "m"),
            lambda n, m: (pad(n, HBar(), m), etabar_term(n, n + 1, n + 2 + m)),
        ),
    ]

    def sym(i: int, j: int, width: int) -> _Pair:
        return etabar_term(i, j, width), etabar_term(j, i, width)

    def sym_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for width in range(2, min(max_param, 4) + 1):
            for i in range(width):
                for j in range(i + 1, width):
                    yield (i, j, width)

    axioms.append(Axiom("etabar-sym", ef, ("i", "j", "n"), sym, ranges=sym_ranges))
    axioms += _equations(ef, _EF_WORDS, _FROBENIUS)
    axioms += _bridge_family(ef, etabar_term)
    return axioms


# --------------------------------------------------------------------
# relational catalog


_RB_POOL: tuple[ArrowTerm, ...] = (
    Id(0),
    Id(1),
    NablaK(1),
    NablaK(2),
    DeltaK(2),
    UnitK(2),
    CounitK(1),
    tau_rb(),
    tau_acute(2),
    iota_term(0, 1, 2, 2),
    zero_term(2, 1, Category.RB),
    union_term(iota_term(0, 0, 2, 2), iota_term(1, 0, 2, 2)),
)

_RB_GENS: tuple[ArrowTerm, ...] = tuple(
    gen(k) for k in (1, 2, 3) for gen in (NablaK, DeltaK, UnitK, CounitK)
)


@functools.cache
def _rel(mask: int, n: int = 2, m: int = 2) -> ArrowTerm:
    """A union-of-pairs sample relation selected by bitmask."""
    cells = [(i, j) for i in range(n) for j in range(m)]
    if not 0 <= mask < 1 << len(cells):
        raise ValueError(f"relation mask {mask} out of range for {n}->{m}")
    pairs = tuple(c for k, c in enumerate(cells) if mask >> k & 1)
    return iota_nf_term(IotaNF(n, m, pairs))


_SQUARE = TermType(2, 2)  # the type of `_rel`'s default sample relations


def _mask_ranges(*sizes: int) -> Callable[[int], Iterator[tuple[int, ...]]]:
    def gen(max_param: int) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(size) for size in sizes))

    return gen


def _rb_axioms() -> list[Axiom]:
    rb = Category.RB
    pool = _RB_POOL

    def nabla_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = f_type = type_of(f)
        lhs = compose_chain([NablaK(n), f], 2 * n)
        rhs = compose_chain([_sum(f, f_type, f, f_type), NablaK(m)], 2 * n)
        return lhs, rhs

    def delta_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = f_type = type_of(f)
        lhs = compose_chain([f, DeltaK(m)], n)
        rhs = compose_chain([DeltaK(n), _sum(f, f_type, f, f_type)], n)
        return lhs, rhs

    def unit_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = type_of(f)
        return compose_chain([UnitK(n), f], 0), UnitK(m)

    def counit_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = type_of(f)
        return compose_chain([f, CounitK(m)], n), CounitK(n)

    def acute_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = type_of(f)
        lhs = compose_chain([tau_acute(n), pad(1, f, 0)], n + 1)
        rhs = compose_chain([pad(0, f, 1), tau_acute(m)], n + 1)
        return lhs, rhs

    def grave_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = type_of(f)
        lhs = compose_chain([tau_grave(n), pad(0, f, 1)], n + 1)
        rhs = compose_chain([pad(1, f, 0), tau_grave(m)], n + 1)
        return lhs, rhs

    def unit_def(n: int, k: int, m: int) -> _Pair:
        pairs = tuple((i, i) for i in range(n)) + tuple(
            (i, i + k) for i in range(n, n + m)
        )
        return pad(n, UnitK(k), m), iota_nf_term(IotaNF(n + m, n + k + m, pairs))

    def counit_def(n: int, k: int, m: int) -> _Pair:
        pairs = tuple((i, i) for i in range(n)) + tuple(
            (i + k, i) for i in range(n, n + m)
        )
        return pad(n, CounitK(k), m), iota_nf_term(IotaNF(n + k + m, n + m, pairs))

    def one_def(n: int, m: int) -> _Pair:
        total = n + m
        diagonal = tuple((i, i) for i in range(total))
        return Id(total), iota_nf_term(IotaNF(total, total, diagonal))

    def iota_comp(n: int, m: int, p: int, q: int, k: int, l: int, r: int) -> _Pair:
        lhs = compose_chain([iota_term(n, m, p, q), iota_term(k, l, q, r)], p)
        if m == k:
            return lhs, iota_term(n, l, p, r)
        return lhs, zero_term(p, r, rb)

    def iota_comp_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        top = min(max_param, 3)
        for p in range(1, top + 1):
            for q in range(1, top + 1):
                for r in range(1, top + 1):
                    for n in range(p):
                        for m in range(q):
                            for k in range(q):
                                for l in range(r):
                                    yield (n, m, p, q, k, l, r)

    def iota_zero_left(n: int, m: int, p: int, q: int, r: int) -> _Pair:
        lhs = compose_chain([iota_term(n, m, p, q), zero_term(q, r, rb)], p)
        return lhs, zero_term(p, r, rb)

    def zero_left_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        top = min(max_param, 3)
        for p in range(1, top + 1):
            for q in range(1, top + 1):
                for r in range(top + 1):
                    for n in range(p):
                        for m in range(q):
                            yield (n, m, p, q, r)

    def iota_zero_right(k: int, l: int, p: int, q: int, r: int) -> _Pair:
        lhs = compose_chain([zero_term(p, q, rb), iota_term(k, l, q, r)], p)
        return lhs, zero_term(p, r, rb)

    def zero_right_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        top = min(max_param, 3)
        for p in range(top + 1):
            for q in range(1, top + 1):
                for r in range(1, top + 1):
                    for k in range(q):
                        for l in range(r):
                            yield (k, l, p, q, r)

    return _pool_family(rb, pool, _RB_GENS) + [
        Axiom("nabla-nat", rb, ("f",), nabla_nat, ranges=_pool_ranges(pool)),
        Axiom("delta-nat", rb, ("f",), delta_nat, ranges=_pool_ranges(pool)),
        Axiom("unit-nat", rb, ("f",), unit_nat, ranges=_pool_ranges(pool)),
        Axiom("counit-nat", rb, ("f",), counit_nat, ranges=_pool_ranges(pool)),
        Axiom(
            "nabla-unit-1", rb, ("k",),
            lambda k: (compose_chain([pad(k, UnitK(k), 0), NablaK(k)], k), Id(k)),
        ),
        Axiom(
            "nabla-unit-2", rb, ("k",),
            lambda k: (compose_chain([pad(0, UnitK(k), k), NablaK(k)], k), Id(k)),
        ),
        Axiom(
            "nabla-unit-12", rb, ("k", "l"),
            lambda k, l: (
                compose_chain(
                    [
                        plus(pad(k, UnitK(l), 0), pad(0, UnitK(k), l)),
                        NablaK(k + l),
                    ],
                    k + l,
                ),
                Id(k + l),
            ),
        ),
        Axiom(
            "delta-counit-1", rb, ("k",),
            lambda k: (compose_chain([DeltaK(k), pad(k, CounitK(k), 0)], k), Id(k)),
        ),
        Axiom(
            "delta-counit-2", rb, ("k",),
            lambda k: (compose_chain([DeltaK(k), pad(0, CounitK(k), k)], k), Id(k)),
        ),
        Axiom(
            "delta-counit-12", rb, ("k", "l"),
            lambda k, l: (
                compose_chain(
                    [
                        DeltaK(k + l),
                        plus(pad(k, CounitK(l), 0), pad(0, CounitK(k), l)),
                    ],
                    k + l,
                ),
                Id(k + l),
            ),
        ),
        Axiom("unit-zero", rb, (), lambda: (UnitK(0), Id(0))),
        Axiom("counit-zero", rb, (), lambda: (CounitK(0), Id(0))),
        Axiom("nabla-zero", rb, (), lambda: (NablaK(0), Id(0))),
        Axiom("delta-zero", rb, (), lambda: (DeltaK(0), Id(0))),
        Axiom(
            "nabla-delta", rb, ("k",),
            lambda k: (compose_chain([DeltaK(k), NablaK(k)], k), Id(k)),
        ),
        Axiom("tau-dual", rb, (), lambda: (tau_rb(), tau_rb_alt())),
        Axiom("tau-acute-nat", rb, ("f",), acute_nat, ranges=_pool_ranges(pool)),
        Axiom("tau-grave-nat", rb, ("f",), grave_nat, ranges=_pool_ranges(pool)),
        Axiom(
            "nabla-step", rb, ("k",),
            lambda k: (NablaK(k + 1), nabla_unfold(k)),
        ),
        Axiom(
            "delta-step", rb, ("k",),
            lambda k: (DeltaK(k + 1), delta_unfold(k)),
        ),
        Axiom(
            "nabla-slide", rb, ("m",),
            lambda m: (
                compose_chain([pad(m, NablaK(1), 0), tau_acute(m)], m + 2),
                compose_chain(
                    [
                        pad(0, tau_acute(m), 1),
                        pad(1, tau_acute(m), 0),
                        pad(0, NablaK(1), m),
                    ],
                    m + 2,
                ),
            ),
        ),
        Axiom(
            "union-assoc", rb, ("f", "g", "h"),
            lambda a, b, c: (
                _union(_rel(a), _union(_rel(b), _rel(c), _SQUARE), _SQUARE),
                _union(_union(_rel(a), _rel(b), _SQUARE), _rel(c), _SQUARE),
            ),
            ranges=_mask_ranges(8, 8, 8),
        ),
        Axiom(
            "union-comm", rb, ("f", "g"),
            lambda a, b: (
                _union(_rel(a), _rel(b), _SQUARE),
                _union(_rel(b), _rel(a), _SQUARE),
            ),
            ranges=_mask_ranges(16, 16),
        ),
        Axiom(
            "union-idem", rb, ("f",),
            lambda a: (_union(_rel(a), _rel(a), _SQUARE), _rel(a)),
            ranges=_mask_ranges(16),
        ),
        Axiom(
            "union-zero", rb, ("f",),
            lambda a: (
                _union(_rel(a), zero_term(2, 2, rb), _SQUARE), _rel(a)
            ),
            ranges=_mask_ranges(16),
        ),
        Axiom(
            "comp-union-left", rb, ("f", "g", "h"),
            lambda a, b, c: (
                compose_chain([_union(_rel(b), _rel(c), _SQUARE), _rel(a)], 2),
                _union(
                    compose_chain([_rel(b), _rel(a)], 2),
                    compose_chain([_rel(c), _rel(a)], 2),
                    _SQUARE,
                ),
            ),
            ranges=_mask_ranges(8, 8, 8),
        ),
        Axiom(
            "comp-union-right", rb, ("f", "g", "h"),
            lambda a, b, c: (
                compose_chain([_rel(a), _union(_rel(b), _rel(c), _SQUARE)], 2),
                _union(
                    compose_chain([_rel(a), _rel(b)], 2),
                    compose_chain([_rel(a), _rel(c)], 2),
                    _SQUARE,
                ),
            ),
            ranges=_mask_ranges(8, 8, 8),
        ),
        Axiom(
            "comp-zero-left", rb, ("f", "k"),
            lambda a, k: (
                compose_chain([_rel(a), zero_term(2, k, rb)], 2),
                zero_term(2, k, rb),
            ),
            ranges=_mask_ranges(16, 4),
        ),
        Axiom(
            "comp-zero-right", rb, ("f", "k"),
            lambda a, k: (
                compose_chain([zero_term(k, 2, rb), _rel(a)], k),
                zero_term(k, 2, rb),
            ),
            ranges=_mask_ranges(16, 4),
        ),
        Axiom(
            "pad-union-left", rb, ("f", "g"),
            lambda a, b: (
                pad(1, _union(_rel(a), _rel(b), _SQUARE), 0),
                _union(pad(1, _rel(a), 0), pad(1, _rel(b), 0), TermType(3, 3)),
            ),
            ranges=_mask_ranges(16, 16),
        ),
        Axiom(
            "pad-union-right", rb, ("f", "g"),
            lambda a, b: (
                pad(0, _union(_rel(a), _rel(b), _SQUARE), 1),
                _union(pad(0, _rel(a), 1), pad(0, _rel(b), 1), TermType(3, 3)),
            ),
            ranges=_mask_ranges(16, 16),
        ),
        Axiom(
            "plus-union", rb, ("f", "g"),
            lambda a, b: (
                _sum(_rel(a, 1, 2), TermType(1, 2), _rel(b, 2, 1), TermType(2, 1)),
                _union(
                    _sum(_rel(a, 1, 2), TermType(1, 2),
                         zero_term(2, 1, rb), TermType(2, 1)),
                    _sum(zero_term(1, 2, rb), TermType(1, 2),
                         _rel(b, 2, 1), TermType(2, 1)),
                    TermType(3, 3),
                ),
            ),
            ranges=_mask_ranges(4, 4),
        ),
        Axiom(
            "nabla-union", rb, ("k",),
            lambda k: (
                NablaK(k),
                _union(
                    pad(k, CounitK(k), 0), pad(0, CounitK(k), k), TermType(2 * k, k)
                ),
            ),
        ),
        Axiom(
            "delta-union", rb, ("k",),
            lambda k: (
                DeltaK(k),
                _union(
                    pad(k, UnitK(k), 0), pad(0, UnitK(k), k), TermType(k, 2 * k)
                ),
            ),
        ),
        Axiom(
            "nabla-def", rb, ("n", "k", "m"),
            lambda n, k, m: (
                pad(n, NablaK(k), m),
                _union(
                    pad(n + k, CounitK(k), m), pad(n, CounitK(k), k + m),
                    TermType(n + 2 * k + m, n + k + m),
                ),
            ),
        ),
        Axiom(
            "delta-def", rb, ("n", "k", "m"),
            lambda n, k, m: (
                pad(n, DeltaK(k), m),
                _union(
                    pad(n + k, UnitK(k), m), pad(n, UnitK(k), k + m),
                    TermType(n + k + m, n + 2 * k + m),
                ),
            ),
        ),
        Axiom("unit-def", rb, ("n", "k", "m"), unit_def,
              guard=lambda n, k, m: n + m >= 1),
        Axiom("counit-def", rb, ("n", "k", "m"), counit_def,
              guard=lambda n, k, m: n + m >= 1),
        Axiom("one-def", rb, ("n", "m"), one_def, guard=lambda n, m: n + m >= 1),
        Axiom("iota-comp", rb, ("n", "m", "p", "q", "k", "l", "r"),
              iota_comp, ranges=iota_comp_ranges),
        Axiom("iota-zero-left", rb, ("n", "m", "p", "q", "r"),
              iota_zero_left, ranges=zero_left_ranges),
        Axiom("iota-zero-right", rb, ("k", "l", "p", "q", "r"),
              iota_zero_right, ranges=zero_right_ranges),
    ]


_CATALOGS: dict[Category, tuple[Axiom, ...]] = {
    Category.PF: tuple(_pf_axioms()),
    Category.EF: tuple(_ef_axioms()),
    Category.RB: tuple(_rb_axioms()),
}


def axiom_catalog(category: Category) -> tuple[Axiom, ...]:
    """The full list of named axioms of one category, in a stable order."""
    return _CATALOGS[category]
