"""Named equational axioms with enumeration, checking and rewriting.

Every entry pairs a slug with a builder producing the two sides of the
equation from integer parameters.

Most axioms are equations in the term language of `dsl`, one line each,
in one of two forms.  A ``name: lhs = rhs`` line takes only the trailing
``lpad``/``rpad``: an instance is the equation widened by that many
untouched strands, so padded occurrences can be matched and rewritten
in place, and the two sides are parsed once, on first instantiation.
A ``name(n, m): lhs = rhs`` line takes exactly the parameters it lists
and is not padded (``name():`` lists none); one declared as ``f<16``
runs below 16 whatever the bound, and a value outside is not
admissible.  At each instantiation every integer parameter is replaced
by its value, every sum such as ``n+2+m`` by its total, and both sides,
scanned once on first use, are parsed.  The lines come in blocks, in
catalog order: the symmetry core and the Frobenius block, shared by PF
and EF; the `h` laws, the `down` laws and the `h` definitions with
`tau-def` of PF; the `hbar` laws and definitions, and `tau-def`, of EF;
RB's unit and zero laws, its mask families and its union definitions.

The parser reads a bound word as its arrow, ahead of any atom of that
name: in PF `merge`, `split`, `down`, `up`, `upalt`, `mergedown` and
`splitdown` are `nabla_pf`, `delta_pf`, `down_pf`, `up_pf`, `up_pf_alt`,
`nabla_down_pf` and `delta_down_pf`; in EF `merge` and `split` are
`nabla_ef` and `delta_ef`.  The parameters `f`, `g` and `h` name arrows,
as in the paper: each is the sample relation `_rel` its value selects,
on 2 -> 2 points, but if declared below 4 on 1 -> 2, and `g` on 2 -> 1.
Importing the module, listing the catalogs and enumerating instances
scan, parse and print nothing; instantiating prints nothing.

An axiom stays code when its parameters run over a pool, or under a
guard or ranges that tie them together, or when it needs what the term
language cannot write: `drop`, `natural_term`, `tau_acute` or `iota_nf`.

Arrows that many instances share are built once per process: the
sample relations `_rel` of the mask families (24 of them), the bound
words, and each signature's bridge arrows `e(i, j, width)` in
`_bridge_family`, in a plain cache, since its families use the same 76
at every parameter bound.  Sharing is safe because terms are frozen and
every builder, `pad`, `apply_axiom` included, makes new nodes around a
shared one instead of changing it.  Whole instances are not kept: `check-axioms`
builds each of them once, so such a cache would only hold memory.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .dsl import _parse_scanned, print_term
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
    category_of,
    compose_chain,
    delta_down_pf,
    delta_ef,
    delta_pf,
    delta_unfold,
    down_pf,
    eta_term,
    etabar_term,
    iota_term,
    nabla_down_pf,
    nabla_ef,
    nabla_pf,
    nabla_unfold,
    natural_term,
    pad,
    tau_acute,
    tau_grave,
    tau_rb,
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

    Pool-indexing, selection-mask and declared parameters run over their
    own fixed ranges, independent of the bound.  A negative bound is a
    `ValueError`.
    """
    if max_param < 0:
        raise ValueError(f"the parameter bound must be non-negative, got {max_param}")
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
        return (tuple(c) for c in cores)
    pads = range(max_param + 1)
    return (
        tuple(core) + (left, right) for core in cores for left in pads for right in pads
    )


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
    e = functools.cache(e)

    def drop(v: int, p: int) -> int:
        return v - 1 if v > p else v

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

_H_DEF = """
h-via-nabla(n, m): pad(n, h, m) = pad(n+1, merge, m) . pad(n+1, down, 1+m) . pad(n, split, 1+m)
h-def(n, m): pad(n, h, m) = eta(n, n+1, n+2+m)
h-tr: pad(0, h, 1) . pad(1, h, 0) = pad(0, h, 1) . pad(1, h, 0) . eta(0, 2, 3)
tau-def(n, m): pad(n, swap, m) = pad(n, counit, 2+m) . eta(n+2, n, n+3+m) . eta(n, n+2, n+3+m) . pad(n+2, unit, m)
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
hbar-def(n, m): pad(n, hbar, m) = pad(n, split, m) . pad(n, merge, m)
hbar-eta(n, m): pad(n, hbar, m) = etabar(n, n+1, n+2+m)
"""

_HBAR_TAU_DEF = """
tau-def(n, m): pad(n, swap, m) = pad(n, counit, 2+m) . etabar(n+2, n, n+3+m) . etabar(n, n+2, n+3+m) . pad(n+2, unit, m)
"""

_RB_UNITS = """
nabla-unit-1(k): nabla(k) . pad(k, unitk(k), 0) = id(k)
nabla-unit-2(k): nabla(k) . pad(0, unitk(k), k) = id(k)
nabla-unit-12(k, l): nabla(k+l) . plus(pad(k, unitk(l), 0), pad(0, unitk(k), l)) = id(k+l)
delta-counit-1(k): pad(k, counitk(k), 0) . delta(k) = id(k)
delta-counit-2(k): pad(0, counitk(k), k) . delta(k) = id(k)
delta-counit-12(k, l): plus(pad(k, counitk(l), 0), pad(0, counitk(k), l)) . delta(k+l) = id(k+l)
unit-zero(): unitk(0) = id(0)
counit-zero(): counitk(0) = id(0)
nabla-zero(): nabla(0) = id(0)
delta-zero(): delta(0) = id(0)
nabla-delta(k): nabla(k) . delta(k) = id(k)
tau-dual(): swap = plus(pad(0, counit, 1), pad(1, counit, 0)) . delta(2)
"""

_RB_UNIONS = """
nabla-union(k): nabla(k) = union(pad(k, counitk(k), 0), pad(0, counitk(k), k))
delta-union(k): delta(k) = union(pad(k, unitk(k), 0), pad(0, unitk(k), k))
nabla-def(n, k, m): pad(n, nabla(k), m) = union(pad(n+k, counitk(k), m), pad(n, counitk(k), k+m))
delta-def(n, k, m): pad(n, delta(k), m) = union(pad(n+k, unitk(k), m), pad(n, unitk(k), k+m))
"""

_RB_MASKS = """
union-assoc(f<8, g<8, h<8): union(f, union(g, h)) = union(union(f, g), h)
union-comm(f<16, g<16): union(f, g) = union(g, f)
union-idem(f<16): union(f, f) = f
union-zero(f<16): union(f, zero(2, 2)) = f
comp-union-left(f<8, g<8, h<8): f . union(g, h) = union(f . g, f . h)
comp-union-right(f<8, g<8, h<8): union(g, h) . f = union(g . f, h . f)
comp-zero-left(f<16, k<4): zero(2, k) . f = zero(2, k)
comp-zero-right(f<16, k<4): f . zero(k, 2) = zero(k, 2)
pad-union-left(f<16, g<16): pad(1, union(f, g), 0) = union(pad(1, f, 0), pad(1, g, 0))
pad-union-right(f<16, g<16): pad(0, union(f, g), 1) = union(pad(0, f, 1), pad(0, g, 1))
plus-union(f<4, g<4): plus(f, g) = union(plus(f, zero(2, 1)), plus(zero(1, 2), g))
"""

_Bound = dict[str, tuple[ArrowTerm, TermType]]


def _bound(**arrows: ArrowTerm) -> _Bound:
    return {word: (arrow, type_of(arrow)) for word, arrow in arrows.items()}


_PF_WORDS = _bound(
    merge=nabla_pf(),
    split=delta_pf(),
    down=down_pf(),
    up=up_pf(),
    upalt=up_pf_alt(),
    mergedown=nabla_down_pf(),
    splitdown=delta_down_pf(),
)

_EF_WORDS = _bound(merge=nabla_ef(), split=delta_ef())

# a word of a line: a name, a numeral, a sum such as `n+2+m`, or a mark
_LINE_WORD = re.compile(r"[a-z\d]+(?:\+[a-z\d]+)*|[.,;()]")

# the parameters that name arrows: each is a sample relation `_rel(mask)`
_MASKS = ("f", "g", "h")


def _equations(category: Category, arrows: _Bound, *tables: str) -> list[Axiom]:
    """An axiom for each line of `tables`, in any form the module
    describes, its sides parsed in `category` with the words of `arrows`
    bound."""

    def schema(declared: Sequence[tuple[str, int | None]], equation: str) -> Callable:
        numeric = {name for name, _ in declared if name not in _MASKS}

        @functools.cache
        def sides() -> list[tuple[str, list[str], list[tuple[int, list[str]]]]]:
            # each side, its words, and where its integer parameters and sums are
            scanned = []
            for side in equation.split(" = "):
                words = _LINE_WORD.findall(side) + [""]
                slots = [(k, word.split("+")) for k, word in enumerate(words)
                         if word in numeric or "+" in word]
                scanned.append((side, words, slots))
            return scanned

        def build(*values: int) -> _Pair:
            bound = dict(arrows)
            numbers = {}
            for (name, size), value in zip(declared, values):
                if name in _MASKS:
                    bound[name] = _sample(name, size, value)
                else:
                    numbers[name] = value
            pair = []
            for side, words, slots in sides():
                if slots:
                    words = words.copy()
                    for k, parts in slots:
                        words[k] = str(sum(
                            numbers[part] if part in numbers else int(part)
                            for part in parts
                        ))
                pair.append(_parse_scanned(side, words, category, bound)[0])
            return tuple(pair)

        return build

    axioms = []
    for line in (line for table in tables for line in table.strip().splitlines()):
        head, equation = line.split(": ")
        name, listed, names = head.partition("(")
        if not listed:
            build = functools.cache(schema((), equation))
            axioms.append(Axiom(name, category, ("lpad", "rpad"), build, padded=True))
            continue
        declared = tuple(
            (param, int(size) if size else None)
            for param, size in re.findall(r"([a-z]+)(?:<(\d+))?", names)
        )
        sizes = tuple(size for _, size in declared)
        axioms.append(Axiom(
            name, category, tuple(param for param, _ in declared),
            schema(declared, equation),
            guard=lambda *values, sizes=sizes: all(
                size is None or value < size for value, size in zip(values, sizes)
            ),
            ranges=lambda max_param, sizes=sizes: itertools.product(*(
                range(max_param + 1 if size is None else size) for size in sizes
            )),
        ))
    return axioms


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
    axioms += _equations(
        pf, _PF_WORDS, _SYMMETRY, _H_LAWS, _FROBENIUS, _DOWN_LAWS, _H_DEF
    )
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

    def sym(i: int, j: int, width: int) -> _Pair:
        return etabar_term(i, j, width), etabar_term(j, i, width)

    def sym_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for width in range(2, min(max_param, 4) + 1):
            for i in range(width):
                for j in range(i + 1, width):
                    yield (i, j, width)

    axioms.append(Axiom("etabar-sym", ef, ("i", "j", "n"), sym, ranges=sym_ranges))
    axioms += _equations(ef, _EF_WORDS, _FROBENIUS, _HBAR_TAU_DEF)
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


def _sample(name: str, size: int, mask: int) -> tuple[ArrowTerm, TermType]:
    """The sample relation that mask parameter `name`, declared below
    `size`, reads as: on 2 -> 2 points, but below 4 on 1 -> 2, and on
    2 -> 1 for `g`."""
    if size > 4:
        return _rel(mask), TermType(2, 2)
    n, m = (2, 1) if name == "g" else (1, 2)
    return _rel(mask, n, m), TermType(n, m)


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
    ] + _equations(rb, {}, _RB_UNITS) + [
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
    ] + _equations(rb, {}, _RB_MASKS, _RB_UNIONS) + [
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
