"""Named equational axioms with enumeration, checking and rewriting.

Every entry pairs a slug with a builder producing the two sides of the
equation from integer parameters.  Concrete equations additionally take
trailing ``lpad``/``rpad`` parameters so padded instances can be matched
and rewritten in place; schema entries (those quantifying over a pool of
sample arrows or over selections) manage their own parameter ranges.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from .dsl import print_term
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


def _axiom(
    name: str,
    category: Category,
    params: Sequence[str],
    build: Callable[..., _Pair],
    *,
    guard: Callable[..., bool] | None = None,
    ranges: Callable[[int], Iterator[tuple[int, ...]]] | None = None,
    padded: bool = True,
) -> Axiom:
    public = tuple(params) + (("lpad", "rpad") if padded else ())
    return Axiom(name, category, public, build, guard, ranges, padded)


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


def _chain(factors: Sequence[ArrowTerm], width: int) -> ArrowTerm:
    return compose_chain(factors, width)


def _sw(left: int, right: int) -> ArrowTerm:
    return pad(left, Swap(), right)


def _h(left: int, right: int) -> ArrowTerm:
    return pad(left, H(), right)


def _hb(left: int, right: int) -> ArrowTerm:
    return pad(left, HBar(), right)


def _un(left: int, right: int) -> ArrowTerm:
    return pad(left, Unit(), right)


def _co(left: int, right: int) -> ArrowTerm:
    return pad(left, Counit(), right)


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
        lhs = _chain([pad(0, xi, r + k), pad(q + r, theta, 0)], p + r + k)
        rhs = _chain([pad(p + r, theta, 0), pad(0, xi, r + l)], p + r + k)
        return lhs, rhs

    def slide_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        count = len(gens)
        return itertools.product(range(count), range(count), range(max_param + 1))

    return [
        _axiom("cat-1-left", category, ("f",), cat_left,
               ranges=_pool_ranges(pool), padded=False),
        _axiom("cat-1-right", category, ("f",), cat_right,
               ranges=_pool_ranges(pool), padded=False),
        _axiom("fl", category, ("xi", "theta", "r"), slide,
               ranges=slide_ranges, padded=False),
    ]


def _core_family(category: Category) -> list[Axiom]:
    """Plain symmetry equations of the split signatures."""
    return [
        _axiom("tau-tau", category, (),
               lambda: (Comp(Swap(), Swap()), Id(2))),
        _axiom("tau-yb", category, (), lambda: (
            _chain([_sw(1, 0), _sw(0, 1), _sw(1, 0)], 3),
            _chain([_sw(0, 1), _sw(1, 0), _sw(0, 1)], 3),
        )),
        _axiom("tau-unit", category, (), lambda: (
            _chain([_un(0, 1), Swap()], 1), _un(1, 0),
        )),
        _axiom("tau-counit", category, (), lambda: (
            _chain([Swap(), _co(0, 1)], 2), _co(1, 0),
        )),
        _axiom("zero-zero", category, (),
               lambda: (Comp(Counit(), Unit()), Id(0))),
    ]


def _monoid_family(
    category: Category,
    merge: Callable[[], ArrowTerm],
    split: Callable[[], ArrowTerm],
) -> list[Axiom]:
    """The merge/split monoid-comonoid block with its symmetries."""
    return [
        _axiom("nabla-assoc", category, (), lambda: (
            _chain([pad(0, merge(), 1), merge()], 3),
            _chain([pad(1, merge(), 0), merge()], 3),
        )),
        _axiom("nabla-unit-left", category, (), lambda: (
            _chain([_un(0, 1), merge()], 1), Id(1),
        )),
        _axiom("nabla-unit-right", category, (), lambda: (
            _chain([_un(1, 0), merge()], 1), Id(1),
        )),
        _axiom("delta-assoc", category, (), lambda: (
            _chain([split(), pad(0, split(), 1)], 1),
            _chain([split(), pad(1, split(), 0)], 1),
        )),
        _axiom("delta-counit-left", category, (), lambda: (
            _chain([split(), _co(0, 1)], 1), Id(1),
        )),
        _axiom("delta-counit-right", category, (), lambda: (
            _chain([split(), _co(1, 0)], 1), Id(1),
        )),
        _axiom("frobenius-left", category, (), lambda: (
            _chain([pad(0, split(), 1), pad(1, merge(), 0)], 2),
            _chain([merge(), split()], 2),
        )),
        _axiom("frobenius-right", category, (), lambda: (
            _chain([pad(1, split(), 0), pad(0, merge(), 1)], 2),
            _chain([merge(), split()], 2),
        )),
        _axiom("nabla-tau", category, (), lambda: (
            _chain([Swap(), merge()], 2), merge(),
        )),
        _axiom("tau-delta", category, (), lambda: (
            _chain([split(), Swap()], 1), split(),
        )),
        _axiom("nabla-swap", category, (), lambda: (
            _chain([pad(0, merge(), 1), Swap()], 3),
            _chain([_sw(1, 0), _sw(0, 1), pad(1, merge(), 0)], 3),
        )),
        _axiom("delta-swap", category, (), lambda: (
            _chain([Swap(), pad(0, split(), 1)], 2),
            _chain([pad(1, split(), 0), _sw(0, 1), _sw(1, 0)], 2),
        )),
        _axiom("separability", category, (), lambda: (
            _chain([split(), merge()], 1), Id(1),
        )),
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

    def drop(v: int, p: int) -> int:
        return v - 1 if v > p else v

    def tau_def(n: int, m: int) -> _Pair:
        width = n + 3 + m
        lhs = pad(n, Swap(), m)
        rhs = _chain(
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
        lhs = _chain([pad(p, Unit(), q), e(i, j, width)], width - 1)
        rhs = _chain(
            [e(drop(i, p), drop(j, p), width - 1), pad(p, Unit(), q)],
            width - 1,
        )
        return lhs, rhs

    def eta_counit(i: int, j: int, p: int, q: int) -> _Pair:
        width = p + 1 + q
        lhs = _chain([e(i, j, width), pad(p, Counit(), q)], width)
        rhs = _chain(
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
        lhs = _chain([e(k, l, width), e(i, j, width)], width)
        rhs = _chain([e(i, j, width), e(k, l, width)], width)
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
        lhs = _chain(factors, p + q)
        pairs = sorted(
            {
                (drop(m, p), drop(r, p))
                for m in sources
                for r in sinks
                if drop(m, p) != drop(r, p)
            }
        )
        rhs = _chain(
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
        return _chain(factors, p + q), Id(p + q)

    def eta_0l(p: int, q: int, outof: int) -> _Pair:
        width = p + 1 + q
        sinks = kl_parts(p, q, outof)
        factors: list[ArrowTerm] = [pad(p, Unit(), q)]
        factors += [e(p, r, width) for r in sorted(sinks, reverse=True)]
        factors.append(pad(p, Counit(), q))
        return _chain(factors, p + q), Id(p + q)

    def sel_guard(p: int, q: int, mask: int) -> bool:
        return not symmetric or mask.bit_count() == 1

    def sel_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for total in range(1, 5):
            for p in range(total + 1):
                for mask in selections(total):
                    if sel_guard(p, total - p, mask):
                        yield (p, total - p, mask)

    def eta_tr(m: int, p: int, r: int, width: int) -> _Pair:
        lhs = _chain([e(p, r, width), e(m, p, width)], width)
        rhs = _chain([e(m, r, width), e(p, r, width), e(m, p, width)], width)
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
        _axiom("tau-def", category, ("n", "m"), tau_def, padded=False),
        _axiom("eta-unit", category, ("i", "j", "p", "q"), eta_unit,
               guard=shift_guard, ranges=shift_ranges, padded=False),
        _axiom("eta-counit", category, ("i", "j", "p", "q"), eta_counit,
               guard=shift_guard, ranges=shift_ranges, padded=False),
        _axiom("eta-idemp", category, ("i", "j", "n"), eta_idemp,
               ranges=idemp_ranges, padded=False),
        _axiom("eta-perm", category, ("i", "j", "k", "l", "n"), eta_perm,
               ranges=perm_ranges, padded=False),
        _axiom("eta-kl", category, ("p", "q", "into", "outof"), eta_kl,
               ranges=kl_ranges, padded=False),
        _axiom("eta-k-zero", category, ("p", "q", "into"), eta_k0,
               guard=sel_guard, ranges=sel_ranges, padded=False),
        _axiom("eta-zero-l", category, ("p", "q", "outof"), eta_0l,
               guard=sel_guard, ranges=sel_ranges, padded=False),
        _axiom("eta-tr", category, ("m", "p", "r", "n"), eta_tr,
               guard=lambda m, p, r, n: len({m, p, r}) == 3 and max(m, p, r) < n,
               ranges=tr_ranges, padded=False),
        _axiom("natural-id", category, ("n",), natural,
               ranges=natural_ranges, padded=False),
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
    axioms = _pool_family(pf, _PF_POOL, _PF_GENS) + _core_family(pf)
    axioms += [
        _axiom("h-idemp", pf, (), lambda: (Comp(H(), H()), H())),
        _axiom("h-yb", pf, (), lambda: (
            _chain([_sw(1, 0), _h(0, 1), _sw(1, 0)], 3),
            _chain([_sw(0, 1), _h(1, 0), _sw(0, 1)], 3),
        )),
        _axiom("h-com-left", pf, (), lambda: (
            _chain([H(), Swap(), H(), Swap()], 2),
            _chain([H(), Swap(), H()], 2),
        )),
        _axiom("h-com-right", pf, (), lambda: (
            _chain([Swap(), H(), Swap(), H()], 2),
            _chain([H(), Swap(), H()], 2),
        )),
        _axiom("h-bond", pf, (), lambda: (
            _chain([_un(0, 1), H(), Swap(), H(), _co(0, 1)], 1), Id(1),
        )),
        _axiom("h-bond-alt", pf, (), lambda: (
            _chain([_un(1, 0), H(), Swap(), H(), _co(1, 0)], 1), Id(1),
        )),
        _axiom("hh", pf, (), lambda: (
            _chain([_h(0, 1), _h(1, 0)], 3),
            _chain([_h(1, 0), _h(0, 1)], 3),
        )),
        _axiom("hh-in", pf, (), lambda: (
            _chain([_h(1, 0), _sw(0, 1), _h(1, 0), _sw(0, 1)], 3),
            _chain([_sw(0, 1), _h(1, 0), _sw(0, 1), _h(1, 0)], 3),
        )),
        _axiom("hh-out", pf, (), lambda: (
            _chain([_h(0, 1), _sw(1, 0), _h(0, 1), _sw(1, 0)], 3),
            _chain([_sw(1, 0), _h(0, 1), _sw(1, 0), _h(0, 1)], 3),
        )),
        _axiom("h-two-zero", pf, (), lambda: (
            _chain([_un(2, 0), _h(1, 0), _sw(0, 1), _h(1, 0), _co(2, 0)], 2),
            Swap(),
        )),
        _axiom("h-zero-two", pf, (), lambda: (
            _chain([_un(0, 2), _h(0, 1), _sw(1, 0), _h(0, 1), _co(0, 2)], 2),
            Swap(),
        )),
        _axiom("h-two-two", pf, (), lambda: (
            _chain(
                [
                    _un(2, 2),
                    _h(1, 2), _h(2, 1),
                    _sw(0, 3), _sw(3, 0),
                    _h(1, 2), _h(2, 1),
                    _co(2, 2),
                ],
                4,
            ),
            _chain(
                [
                    _h(1, 1), _sw(2, 0), _h(1, 1), _sw(0, 2),
                    _sw(2, 0), _h(1, 1), _sw(2, 0), _h(1, 1),
                ],
                4,
            ),
        )),
    ]
    axioms += _monoid_family(pf, nabla_pf, delta_pf)
    down = down_pf
    axioms += [
        _axiom("down-idemp", pf, (), lambda: (
            Comp(down(), down()), down(),
        )),
        _axiom("down-tau", pf, (), lambda: (
            _chain([pad(0, down(), 1), Swap()], 2),
            _chain([Swap(), pad(1, down(), 0)], 2),
        )),
        _axiom("up-alt", pf, (), lambda: (up_pf(), up_pf_alt())),
        _axiom("up-down", pf, (), lambda: (
            _chain(
                [
                    delta_pf(),
                    pad(0, up_pf(), 1),
                    pad(1, down(), 0),
                    nabla_pf(),
                ],
                1,
            ),
            Id(1),
        )),
        _axiom("down-two-zero", pf, (), lambda: (
            _chain([nabla_down_pf(), Counit()], 2),
            _chain([_co(1, 0), Counit()], 2),
        )),
        _axiom("down-zero-two", pf, (), lambda: (
            _chain([Unit(), delta_down_pf()], 0),
            _chain([Unit(), _un(1, 0)], 0),
        )),
        _axiom("down-two-two", pf, (), lambda: (
            _chain([nabla_down_pf(), delta_down_pf()], 2),
            _chain(
                [
                    pad(0, delta_down_pf(), 1),
                    pad(2, delta_down_pf(), 0),
                    _sw(1, 1),
                    pad(0, nabla_down_pf(), 2),
                    pad(1, nabla_down_pf(), 0),
                ],
                2,
            ),
        )),
        _axiom("down-separability", pf, (), lambda: (
            _chain([delta_down_pf(), nabla_down_pf()], 1), down(),
        )),
        _axiom("down-two-one", pf, (), lambda: (
            _chain([nabla_down_pf(), down()], 2), nabla_down_pf(),
        )),
        _axiom("down-one-two", pf, (), lambda: (
            _chain([down(), delta_down_pf()], 1), delta_down_pf(),
        )),
        _axiom("down-zero-one", pf, (), lambda: (
            _chain([Unit(), down()], 0), Unit(),
        )),
        _axiom("down-one-zero", pf, (), lambda: (
            _chain([down(), Counit()], 1), Counit(),
        )),
        _axiom("nabla-circ", pf, (), lambda: (
            nabla_pf(),
            _chain(
                [
                    pad(0, delta_pf(), 1),
                    pad(
                        1,
                        _chain([pad(0, down(), 1), nabla_pf(), down()], 2),
                        0,
                    ),
                    nabla_pf(),
                ],
                2,
            ),
        )),
        _axiom(
            "h-via-nabla", pf, ("n", "m"),
            lambda n, m: (pad(n, H(), m), h_via_nabla(n, m)),
            padded=False,
        ),
        _axiom(
            "h-def", pf, ("n", "m"),
            lambda n, m: (pad(n, H(), m), eta_term(n, n + 1, n + 2 + m)),
            padded=False,
        ),
        _axiom("h-tr", pf, (), lambda: (
            _chain([_h(1, 0), _h(0, 1)], 3),
            _chain([eta_term(0, 2, 3), _h(1, 0), _h(0, 1)], 3),
        )),
    ]
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
    axioms = _pool_family(ef, _EF_POOL, _EF_GENS) + _core_family(ef)
    axioms += [
        _axiom("hbar-idemp", ef, (), lambda: (Comp(HBar(), HBar()), HBar())),
        _axiom("hbar-yb", ef, (), lambda: (
            _chain([_sw(1, 0), _hb(0, 1), _sw(1, 0)], 3),
            _chain([_sw(0, 1), _hb(1, 0), _sw(0, 1)], 3),
        )),
        _axiom("hbar-com-left", ef, (), lambda: (
            Comp(Swap(), HBar()), HBar(),
        )),
        _axiom("hbar-com-right", ef, (), lambda: (
            Comp(HBar(), Swap()), HBar(),
        )),
        _axiom("hbar-bond", ef, (), lambda: (
            _chain([_un(0, 1), HBar(), _co(0, 1)], 1), Id(1),
        )),
        _axiom("hbar-bond-alt", ef, (), lambda: (
            _chain([_un(1, 0), HBar(), _co(1, 0)], 1), Id(1),
        )),
        _axiom("hbar-hbar", ef, (), lambda: (
            _chain([_hb(0, 1), _hb(1, 0)], 3),
            _chain([_hb(1, 0), _hb(0, 1)], 3),
        )),
        _axiom("nabla-consistency", ef, (), lambda: (
            nabla_ef(),
            _chain([nabla_ef(), delta_ef(), _co(0, 1)], 2),
        )),
        _axiom("delta-consistency", ef, (), lambda: (
            delta_ef(),
            _chain([_un(0, 1), nabla_ef(), delta_ef()], 1),
        )),
        _axiom(
            "hbar-def", ef, ("n", "m"),
            lambda n, m: (
                pad(n, HBar(), m),
                _chain(
                    [pad(n, nabla_ef(), m), pad(n, delta_ef(), m)],
                    n + 2 + m,
                ),
            ),
            padded=False,
        ),
        _axiom(
            "hbar-eta", ef, ("n", "m"),
            lambda n, m: (pad(n, HBar(), m), etabar_term(n, n + 1, n + 2 + m)),
            padded=False,
        ),
    ]

    def sym(i: int, j: int, width: int) -> _Pair:
        return etabar_term(i, j, width), etabar_term(j, i, width)

    def sym_ranges(max_param: int) -> Iterator[tuple[int, ...]]:
        for width in range(2, min(max_param, 4) + 1):
            for i in range(width):
                for j in range(i + 1, width):
                    yield (i, j, width)

    axioms.append(
        _axiom("etabar-sym", ef, ("i", "j", "n"), sym,
               ranges=sym_ranges, padded=False)
    )
    axioms += _monoid_family(ef, nabla_ef, delta_ef)
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
        lhs = _chain([NablaK(n), f], 2 * n)
        rhs = _chain([_sum(f, f_type, f, f_type), NablaK(m)], 2 * n)
        return lhs, rhs

    def delta_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = f_type = type_of(f)
        lhs = _chain([f, DeltaK(m)], n)
        rhs = _chain([DeltaK(n), _sum(f, f_type, f, f_type)], n)
        return lhs, rhs

    def unit_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = type_of(f)
        return _chain([UnitK(n), f], 0), UnitK(m)

    def counit_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = type_of(f)
        return _chain([f, CounitK(m)], n), CounitK(n)

    def acute_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = type_of(f)
        lhs = _chain([tau_acute(n), pad(1, f, 0)], n + 1)
        rhs = _chain([pad(0, f, 1), tau_acute(m)], n + 1)
        return lhs, rhs

    def grave_nat(i: int) -> _Pair:
        f = _pick(pool, i)
        n, m = type_of(f)
        lhs = _chain([tau_grave(n), pad(0, f, 1)], n + 1)
        rhs = _chain([pad(1, f, 0), tau_grave(m)], n + 1)
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
        lhs = _chain([iota_term(n, m, p, q), iota_term(k, l, q, r)], p)
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
        lhs = _chain([iota_term(n, m, p, q), zero_term(q, r, rb)], p)
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
        lhs = _chain([zero_term(p, q, rb), iota_term(k, l, q, r)], p)
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
        _axiom("nabla-nat", rb, ("f",), nabla_nat,
               ranges=_pool_ranges(pool), padded=False),
        _axiom("delta-nat", rb, ("f",), delta_nat,
               ranges=_pool_ranges(pool), padded=False),
        _axiom("unit-nat", rb, ("f",), unit_nat,
               ranges=_pool_ranges(pool), padded=False),
        _axiom("counit-nat", rb, ("f",), counit_nat,
               ranges=_pool_ranges(pool), padded=False),
        _axiom(
            "nabla-unit-1", rb, ("k",),
            lambda k: (_chain([pad(k, UnitK(k), 0), NablaK(k)], k), Id(k)),
            padded=False,
        ),
        _axiom(
            "nabla-unit-2", rb, ("k",),
            lambda k: (_chain([pad(0, UnitK(k), k), NablaK(k)], k), Id(k)),
            padded=False,
        ),
        _axiom(
            "nabla-unit-12", rb, ("k", "l"),
            lambda k, l: (
                _chain(
                    [
                        plus(pad(k, UnitK(l), 0), pad(0, UnitK(k), l)),
                        NablaK(k + l),
                    ],
                    k + l,
                ),
                Id(k + l),
            ),
            padded=False,
        ),
        _axiom(
            "delta-counit-1", rb, ("k",),
            lambda k: (_chain([DeltaK(k), pad(k, CounitK(k), 0)], k), Id(k)),
            padded=False,
        ),
        _axiom(
            "delta-counit-2", rb, ("k",),
            lambda k: (_chain([DeltaK(k), pad(0, CounitK(k), k)], k), Id(k)),
            padded=False,
        ),
        _axiom(
            "delta-counit-12", rb, ("k", "l"),
            lambda k, l: (
                _chain(
                    [
                        DeltaK(k + l),
                        plus(pad(k, CounitK(l), 0), pad(0, CounitK(k), l)),
                    ],
                    k + l,
                ),
                Id(k + l),
            ),
            padded=False,
        ),
        _axiom("unit-zero", rb, (), lambda: (UnitK(0), Id(0)), padded=False),
        _axiom("counit-zero", rb, (), lambda: (CounitK(0), Id(0)), padded=False),
        _axiom("nabla-zero", rb, (), lambda: (NablaK(0), Id(0)), padded=False),
        _axiom("delta-zero", rb, (), lambda: (DeltaK(0), Id(0)), padded=False),
        _axiom(
            "nabla-delta", rb, ("k",),
            lambda k: (_chain([DeltaK(k), NablaK(k)], k), Id(k)),
            padded=False,
        ),
        _axiom("tau-dual", rb, (), lambda: (tau_rb(), tau_rb_alt()),
               padded=False),
        _axiom("tau-acute-nat", rb, ("f",), acute_nat,
               ranges=_pool_ranges(pool), padded=False),
        _axiom("tau-grave-nat", rb, ("f",), grave_nat,
               ranges=_pool_ranges(pool), padded=False),
        _axiom(
            "nabla-step", rb, ("k",),
            lambda k: (NablaK(k + 1), nabla_unfold(k)),
            padded=False,
        ),
        _axiom(
            "delta-step", rb, ("k",),
            lambda k: (DeltaK(k + 1), delta_unfold(k)),
            padded=False,
        ),
        _axiom(
            "nabla-slide", rb, ("m",),
            lambda m: (
                _chain([pad(m, NablaK(1), 0), tau_acute(m)], m + 2),
                _chain(
                    [
                        pad(0, tau_acute(m), 1),
                        pad(1, tau_acute(m), 0),
                        pad(0, NablaK(1), m),
                    ],
                    m + 2,
                ),
            ),
            padded=False,
        ),
        _axiom(
            "union-assoc", rb, ("f", "g", "h"),
            lambda a, b, c: (
                _union(_rel(a), _union(_rel(b), _rel(c), _SQUARE), _SQUARE),
                _union(_union(_rel(a), _rel(b), _SQUARE), _rel(c), _SQUARE),
            ),
            ranges=_mask_ranges(8, 8, 8), padded=False,
        ),
        _axiom(
            "union-comm", rb, ("f", "g"),
            lambda a, b: (
                _union(_rel(a), _rel(b), _SQUARE),
                _union(_rel(b), _rel(a), _SQUARE),
            ),
            ranges=_mask_ranges(16, 16), padded=False,
        ),
        _axiom(
            "union-idem", rb, ("f",),
            lambda a: (_union(_rel(a), _rel(a), _SQUARE), _rel(a)),
            ranges=_mask_ranges(16), padded=False,
        ),
        _axiom(
            "union-zero", rb, ("f",),
            lambda a: (
                _union(_rel(a), zero_term(2, 2, rb), _SQUARE), _rel(a)
            ),
            ranges=_mask_ranges(16), padded=False,
        ),
        _axiom(
            "comp-union-left", rb, ("f", "g", "h"),
            lambda a, b, c: (
                _chain([_union(_rel(b), _rel(c), _SQUARE), _rel(a)], 2),
                _union(
                    _chain([_rel(b), _rel(a)], 2),
                    _chain([_rel(c), _rel(a)], 2),
                    _SQUARE,
                ),
            ),
            ranges=_mask_ranges(8, 8, 8), padded=False,
        ),
        _axiom(
            "comp-union-right", rb, ("f", "g", "h"),
            lambda a, b, c: (
                _chain([_rel(a), _union(_rel(b), _rel(c), _SQUARE)], 2),
                _union(
                    _chain([_rel(a), _rel(b)], 2),
                    _chain([_rel(a), _rel(c)], 2),
                    _SQUARE,
                ),
            ),
            ranges=_mask_ranges(8, 8, 8), padded=False,
        ),
        _axiom(
            "comp-zero-left", rb, ("f", "k"),
            lambda a, k: (
                _chain([_rel(a), zero_term(2, k, rb)], 2),
                zero_term(2, k, rb),
            ),
            ranges=_mask_ranges(16, 4), padded=False,
        ),
        _axiom(
            "comp-zero-right", rb, ("f", "k"),
            lambda a, k: (
                _chain([zero_term(k, 2, rb), _rel(a)], k),
                zero_term(k, 2, rb),
            ),
            ranges=_mask_ranges(16, 4), padded=False,
        ),
        _axiom(
            "pad-union-left", rb, ("f", "g"),
            lambda a, b: (
                pad(1, _union(_rel(a), _rel(b), _SQUARE), 0),
                _union(pad(1, _rel(a), 0), pad(1, _rel(b), 0), TermType(3, 3)),
            ),
            ranges=_mask_ranges(16, 16), padded=False,
        ),
        _axiom(
            "pad-union-right", rb, ("f", "g"),
            lambda a, b: (
                pad(0, _union(_rel(a), _rel(b), _SQUARE), 1),
                _union(pad(0, _rel(a), 1), pad(0, _rel(b), 1), TermType(3, 3)),
            ),
            ranges=_mask_ranges(16, 16), padded=False,
        ),
        _axiom(
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
            ranges=_mask_ranges(4, 4), padded=False,
        ),
        _axiom(
            "nabla-union", rb, ("k",),
            lambda k: (
                NablaK(k),
                _union(
                    pad(k, CounitK(k), 0), pad(0, CounitK(k), k), TermType(2 * k, k)
                ),
            ),
            padded=False,
        ),
        _axiom(
            "delta-union", rb, ("k",),
            lambda k: (
                DeltaK(k),
                _union(
                    pad(k, UnitK(k), 0), pad(0, UnitK(k), k), TermType(k, 2 * k)
                ),
            ),
            padded=False,
        ),
        _axiom(
            "nabla-def", rb, ("n", "k", "m"),
            lambda n, k, m: (
                pad(n, NablaK(k), m),
                _union(
                    pad(n + k, CounitK(k), m), pad(n, CounitK(k), k + m),
                    TermType(n + 2 * k + m, n + k + m),
                ),
            ),
            padded=False,
        ),
        _axiom(
            "delta-def", rb, ("n", "k", "m"),
            lambda n, k, m: (
                pad(n, DeltaK(k), m),
                _union(
                    pad(n + k, UnitK(k), m), pad(n, UnitK(k), k + m),
                    TermType(n + k + m, n + 2 * k + m),
                ),
            ),
            padded=False,
        ),
        _axiom("unit-def", rb, ("n", "k", "m"), unit_def,
               guard=lambda n, k, m: n + m >= 1, padded=False),
        _axiom("counit-def", rb, ("n", "k", "m"), counit_def,
               guard=lambda n, k, m: n + m >= 1, padded=False),
        _axiom("one-def", rb, ("n", "m"), one_def,
               guard=lambda n, m: n + m >= 1, padded=False),
        _axiom("iota-comp", rb, ("n", "m", "p", "q", "k", "l", "r"),
               iota_comp, ranges=iota_comp_ranges, padded=False),
        _axiom("iota-zero-left", rb, ("n", "m", "p", "q", "r"),
               iota_zero_left, ranges=zero_left_ranges, padded=False),
        _axiom("iota-zero-right", rb, ("k", "l", "p", "q", "r"),
               iota_zero_right, ranges=zero_right_ranges, padded=False),
    ]


_CATALOGS: dict[Category, tuple[Axiom, ...]] = {
    Category.PF: tuple(_pf_axioms()),
    Category.EF: tuple(_ef_axioms()),
    Category.RB: tuple(_rb_axioms()),
}


def axiom_catalog(category: Category) -> tuple[Axiom, ...]:
    """The full list of named axioms of one category, in a stable order."""
    return _CATALOGS[category]
