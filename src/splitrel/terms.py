"""Typed arrow terms over the three generator signatures.

Terms are immutable trees of `Id`, `Pad`, `Comp` and generator leaves.
The PF/EF signatures share `Unit`, `Counit`, `Swap` and differ in their
bridge generator (`H` with a direction, `HBar` without); the RB
signature has arity-indexed folds and units (`NablaK`, `DeltaK`,
`UnitK`, `CounitK`).

Build terms through `pad`, `plus`, `compose_chain` and the derived
constructors: those keep terms in the canonical shape the printer and
the structural round-trip rely on (`Pad` only immediately above a
non-identity generator leaf).  Hand-built `Pad(...)` nodes around
compositions or identities are legal but not canonical.

The public builders check what they are given: `plus` types both
arguments and checks the signature of the sum, and `union_term` types
each argument once, builds the union, then checks its signature once.
Builders that already know the widths of their parts take them instead
of walking the parts: the private `_sum` and `_union` (used by
`iota_term`, `normalform.iota_nf_term` and the relational catalog)
neither type nor check, so their callers must pass correct types.
`pad` walks the before spine of a composition with a loop, so a long
chain nested on the before side does not make it recurse once per
factor; `type_of` and `forced_category` walk a term with an explicit
stack, so no chain does, on either side.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence


class Category(Enum):
    PF = "PF"
    EF = "EF"
    RB = "RB"


class TermError(Exception):
    """Base for term construction and typing failures."""


class TermTypeError(TermError):
    """Raised for ill-typed composition or category clashes."""


class TermType(NamedTuple):
    src: int
    tgt: int

    def __str__(self) -> str:
        return f"{self.src}->{self.tgt}"


class ArrowTerm:
    """Common base; concrete terms are the dataclasses below."""

    __slots__ = ()

    @property
    def type(self) -> TermType:
        return type_of(self)

    @property
    def category(self) -> Category:
        return category_of(self)


@dataclass(frozen=True, slots=True)
class Id(ArrowTerm):
    n: int


@dataclass(frozen=True, slots=True)
class Pad(ArrowTerm):
    left: int
    body: ArrowTerm
    right: int


@dataclass(frozen=True, slots=True)
class Comp(ArrowTerm):
    after: ArrowTerm
    before: ArrowTerm


@dataclass(frozen=True, slots=True)
class Unit(ArrowTerm):
    """Insert one fresh point: 0 -> 1."""


@dataclass(frozen=True, slots=True)
class Counit(ArrowTerm):
    """Delete one point: 1 -> 0."""


@dataclass(frozen=True, slots=True)
class Swap(ArrowTerm):
    """Cross two adjacent strands: 2 -> 2."""


@dataclass(frozen=True, slots=True)
class H(ArrowTerm):
    """Directed bridge between two adjacent strands: 2 -> 2."""


@dataclass(frozen=True, slots=True)
class HBar(ArrowTerm):
    """Undirected bridge merging two adjacent strands: 2 -> 2."""


@dataclass(frozen=True, slots=True)
class NablaK(ArrowTerm):
    """Fold two k-blocks pointwise onto one: 2k -> k."""

    k: int


@dataclass(frozen=True, slots=True)
class DeltaK(ArrowTerm):
    """Co-fold one k-block onto two: k -> 2k."""

    k: int


@dataclass(frozen=True, slots=True)
class UnitK(ArrowTerm):
    """Insert k fresh unconnected points: 0 -> k."""

    k: int


@dataclass(frozen=True, slots=True)
class CounitK(ArrowTerm):
    """Delete a k-block: k -> 0."""

    k: int


_TYPED = object()  # on `type_of`'s stack: the term below it has typed parts


def type_of(t: ArrowTerm) -> TermType:
    """Source and target widths, computed bottom-up.

    A post-order loop over an explicit stack, so a term nested deep on
    either side does not recurse.  A composition's before factor is typed
    first, then its after factor, and only then are the two checked
    against each other, so the first mismatch found is the one a
    recursive walk finds.
    """
    types: list[TermType] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t is _TYPED:
            t = todo.pop()
            if isinstance(t, Pad):
                inner = types.pop()
                types.append(
                    TermType(t.left + inner.src + t.right, t.left + inner.tgt + t.right)
                )
                continue
            after_t, before_t = types.pop(), types.pop()
            if before_t.tgt != after_t.src:
                raise TermTypeError(
                    f"cannot compose {before_t} with {after_t}: "
                    f"{before_t.tgt} != {after_t.src}"
                )
            types.append(TermType(before_t.src, after_t.tgt))
            continue
        match t:
            case Comp(after, before):
                todo += (t, _TYPED, after, before)
            case Pad(_, body, _):
                todo += (t, _TYPED, body)
            case Id(n):
                types.append(TermType(n, n))
            case Swap() | H() | HBar():
                types.append(TermType(2, 2))
            case Unit():
                types.append(TermType(0, 1))
            case Counit():
                types.append(TermType(1, 0))
            case NablaK(k):
                types.append(TermType(2 * k, k))
            case DeltaK(k):
                types.append(TermType(k, 2 * k))
            case UnitK(k):
                types.append(TermType(0, k))
            case CounitK(k):
                types.append(TermType(k, 0))
            case _:
                raise TermTypeError(f"not an arrow term: {t!r}")
    return types[0]


def _generator_kinds(t: ArrowTerm, found: set[str]) -> None:
    stack = [t]  # after factors are visited before before factors
    while stack:
        match stack.pop():
            case Id(_):
                pass
            case Pad(_, body, _):
                stack.append(body)
            case Comp(after, before):
                stack.append(before)
                stack.append(after)
            case H():
                found.add("pf")
            case HBar():
                found.add("ef")
            case Unit() | Counit() | Swap():
                found.add("pf-or-ef")
            case NablaK(_) | DeltaK(_) | UnitK(_) | CounitK(_):
                found.add("rb")
            case other:
                raise TermTypeError(f"not an arrow term: {other!r}")


def forced_category(t: ArrowTerm) -> Category | None:
    """The category pinned by the term's generators, None if neutral."""
    found: set[str] = set()
    _generator_kinds(t, found)
    if "rb" in found:
        if found & {"pf", "ef", "pf-or-ef"}:
            raise TermTypeError("term mixes relational and split-preorder generators")
        return Category.RB
    if "pf" in found and "ef" in found:
        raise TermTypeError("term mixes the directed and undirected bridge generators")
    if "pf" in found:
        return Category.PF
    if "ef" in found:
        return Category.EF
    return None


def category_of(t: ArrowTerm, default: Category = Category.PF) -> Category:
    """Least signature covering the term's generators.

    Terms with only identities and the shared PF/EF generators default
    to `default` (PF unless overridden).
    """
    forced = forced_category(t)
    if forced is not None:
        return forced
    if default is Category.RB:
        found: set[str] = set()
        _generator_kinds(t, found)
        if "pf-or-ef" in found:
            raise TermTypeError(
                "term uses split-preorder generators, not relational ones"
            )
    return default


def pad(left: int, t: ArrowTerm, right: int) -> ArrowTerm:
    """Widen a term with `left` and `right` untouched strands.

    Nested paddings merge, padding distributes over composition, and a
    padded identity is an identity, so `Pad` nodes survive only
    directly above non-identity generator leaves.
    """
    if left < 0 or right < 0:
        raise ValueError("padding must be non-negative")
    if left == 0 and right == 0:
        return t
    if isinstance(t, Comp):
        # walk the before spine with a loop, so that a long chain does
        # not recurse once per factor
        afters = []
        while isinstance(t, Comp):
            afters.append(t.after)
            t = t.before
        term = pad(left, t, right)
        for after in reversed(afters):
            term = Comp(pad(left, after, right), term)
        return term
    if isinstance(t, Id):
        return Id(left + t.n + right)
    if isinstance(t, Pad):
        return pad(left + t.left, t.body, t.right + right)
    return Pad(left, t, right)


def plus(f: ArrowTerm, g: ArrowTerm) -> ArrowTerm:
    """Side-by-side sum, realized as pad-then-compose (g in the second block).

    Identity blocks collapse into padding: plus(f, Id(0)) is f itself.
    """
    result = _sum(f, type_of(f), g, type_of(g))
    category_of(result)  # reject mixed-signature sums
    return result


def _sum(f: ArrowTerm, f_type: TermType, g: ArrowTerm, g_type: TermType) -> ArrowTerm:
    """`plus` of two terms of known types, with no typing or signature walk."""
    return compose_chain(
        [pad(0, f, g_type.src), pad(f_type.tgt, g, 0)],
        f_type.src + g_type.src,
    )


def compose_chain(factors: Sequence[ArrowTerm], width: int) -> ArrowTerm:
    """Compose `factors` in application order, dropping identity factors.

    An empty (or all-identity) chain is `Id(width)`.
    """
    useful = [f for f in factors if not isinstance(f, Id)]
    if not useful:
        return Id(width)
    term = useful[0]
    for f in useful[1:]:
        term = Comp(f, term)
    return term


# --------------------------------------------------------------------
# permutations realized by adjacent transpositions


@dataclass(frozen=True)
class Perm:
    """A bijection on {0..N-1} stored as its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(int(i) for i in self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> "Perm":
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(tuple(inv))


def perm_factors(p: Perm) -> list[int]:
    """Positions of adjacent transpositions realizing p, in application order."""
    seq = list(p.images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(seq) - 1):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps.append(j)
                changed = True
    return swaps


def _transposition_terms(positions: Iterable[int], n: int) -> list[ArrowTerm]:
    return [pad(a, Swap(), n - 2 - a) for a in positions]


def perm_term(p: Perm) -> ArrowTerm:
    """A composition of adjacent swaps whose value is the permutation p."""
    return compose_chain(_transposition_terms(perm_factors(p), p.size), p.size)


def _route_to_front(i: int, j: int, n: int) -> Perm:
    # i goes to 0, j to 1, everything else keeps its relative order.
    rest = sorted(x for x in range(n) if x not in (i, j))
    images = [0] * n
    images[i] = 0
    images[j] = 1
    for rank, x in enumerate(rest):
        images[x] = 2 + rank
    return Perm(tuple(images))


def _bridge_arrow(i: int, j: int, n: int, bridge: ArrowTerm) -> ArrowTerm:
    if n < 2:
        raise ValueError("bridges need at least two strands")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"strands ({i},{j}) out of range for {n}")
    if i == j:
        raise ValueError("a bridge connects two distinct strands")
    route = _route_to_front(i, j, n)
    factors = perm_factors(route)
    forward = _transposition_terms(factors, n)
    backward = _transposition_terms(reversed(factors), n)
    return compose_chain([*forward, pad(0, bridge, n - 2), *backward], n)


def eta_term(i: int, j: int, n: int) -> ArrowTerm:
    """Directed bridge from strand i to strand j among n strands (PF)."""
    return _bridge_arrow(i, j, n, H())


def etabar_term(i: int, j: int, n: int) -> ArrowTerm:
    """Undirected bridge between strands i and j among n strands (EF)."""
    return _bridge_arrow(i, j, n, HBar())


# --------------------------------------------------------------------
# derived constructors


def unit_power(m: int, category: Category = Category.PF) -> ArrowTerm:
    """0 -> m: insert m fresh points."""
    if m < 0:
        raise ValueError("negative arity")
    if category is Category.RB:
        return UnitK(m)
    term: ArrowTerm = Id(0)
    for k in range(m):
        term = Comp(pad(0, Unit(), k), term) if k else Unit()
    return term if m else Id(0)


def counit_power(n: int, category: Category = Category.PF) -> ArrowTerm:
    """n -> 0: delete n points."""
    if n < 0:
        raise ValueError("negative arity")
    if category is Category.RB:
        return CounitK(n)
    term: ArrowTerm = Id(0)
    for k in range(n):
        term = Comp(term, pad(0, Counit(), k)) if k else Counit()
    return term if n else Id(0)


def zero_term(n: int, m: int, category: Category = Category.PF) -> ArrowTerm:
    """The empty arrow n -> m: delete everything, then insert fresh points."""
    if n == 0 and m == 0:
        return Id(0)
    if n == 0:
        return unit_power(m, category)
    if m == 0:
        return counit_power(n, category)
    return Comp(unit_power(m, category), counit_power(n, category))


def iota_term(i: int, j: int, n: int, m: int) -> ArrowTerm:
    """The single-pair relation i |-> j inside n -> m (RB)."""
    if not (0 <= i < n and 0 <= j < m):
        raise ValueError(f"pair ({i},{j}) out of bounds for {n}->{m}")
    rb = Category.RB
    head = _sum(zero_term(i, j, rb), TermType(i, j), Id(1), TermType(1, 1))
    tail = zero_term(n - i - 1, m - j - 1, rb)
    return _sum(head, TermType(i + 1, j + 1), tail, TermType(n - i - 1, m - j - 1))


def union_term(f: ArrowTerm, g: ArrowTerm) -> ArrowTerm:
    """Pointwise union of two parallel RB arrows: fold of their sum."""
    union = _parallel_union(f, type_of(f), g, type_of(g))
    forced_category(union)  # the fold beside a split-preorder generator raises
    return union


def _parallel_union(
    f: ArrowTerm, f_type: TermType, g: ArrowTerm, g_type: TermType
) -> ArrowTerm:
    """`union_term` of two arrows of known types: checks that they are
    parallel, with no typing or signature walk."""
    if f_type != g_type:
        raise TermTypeError(
            f"union needs parallel arrows, got {f_type} and {g_type}"
        )
    return _union(f, g, f_type)


def _union(f: ArrowTerm, g: ArrowTerm, f_type: TermType) -> ArrowTerm:
    """`union_term` of two arrows of the known type `f_type`, with no typing
    or signature walk."""
    n, m = f_type
    return Comp(NablaK(m), Comp(_sum(f, f_type, g, f_type), DeltaK(n)))


def _overline_factors(k: int, l: int, n: int, category: Category) -> list[ArrowTerm]:
    if category is Category.EF:
        return [etabar_term(k, l, n)]
    return [eta_term(l, k, n), eta_term(k, l, n)]


def natural_term(n: int, category: Category = Category.PF) -> ArrowTerm:
    """n -> n: insert n fresh points, bond them to the originals, delete.

    Evaluates to the identity; exercises the whole bridge toolkit.
    """
    if category is Category.RB:
        raise ValueError("no natural arrow in the relational signature")
    if n == 0:
        return Id(0)
    factors: list[ArrowTerm] = [pad(n, unit_power(n, category), 0)]
    for k in range(n):
        factors.extend(_overline_factors(k, n + k, 2 * n, category))
    factors.append(pad(0, counit_power(n, category), n))
    return compose_chain(factors, n)


def tau_rb() -> ArrowTerm:
    """The RB transposition 2 -> 2, folded from two unit insertions."""
    return Comp(
        NablaK(2),
        plus(pad(0, UnitK(1), 1), pad(1, UnitK(1), 0)),
    )


def tau_acute(k: int) -> ArrowTerm:
    """k+1 -> k+1: move the last strand to the front, others shift right (RB)."""
    term: ArrowTerm = Id(1)
    for i in range(k):
        term = compose_chain([pad(1, term, 0), pad(0, tau_rb(), i)], i + 2)
    return term


def tau_grave(k: int) -> ArrowTerm:
    """k+1 -> k+1: move the first strand to the end, others shift left (RB)."""
    term: ArrowTerm = Id(1)
    for i in range(k):
        term = compose_chain([pad(0, term, 1), pad(i, tau_rb(), 0)], i + 2)
    return term


def nabla_unfold(k: int) -> ArrowTerm:
    """One unfolding step of the k+1 fold into an arity-1 fold beside a k fold."""
    if k < 0:
        raise ValueError("negative arity")
    return compose_chain(
        [pad(1, tau_acute(k), k), plus(NablaK(1), NablaK(k))],
        2 * k + 2,
    )


def delta_unfold(k: int) -> ArrowTerm:
    """One unfolding step of the k+1 co-fold."""
    if k < 0:
        raise ValueError("negative arity")
    return compose_chain(
        [plus(DeltaK(1), DeltaK(k)), pad(1, tau_grave(k), k)],
        k + 1,
    )


def nabla_pf() -> ArrowTerm:
    """2 -> 1 merge in PF: bridge, cross, bridge, delete."""
    return compose_chain([H(), Swap(), H(), pad(0, Counit(), 1)], 2)


def delta_pf() -> ArrowTerm:
    """1 -> 2 co-merge in PF."""
    return compose_chain([pad(0, Unit(), 1), H(), Swap(), H()], 1)


def down_pf() -> ArrowTerm:
    """1 -> 1: keep only the downward direction of a strand."""
    return compose_chain([pad(1, Unit(), 0), H(), pad(0, Counit(), 1)], 1)


def up_pf() -> ArrowTerm:
    """1 -> 1: keep only the upward direction of a strand."""
    down = down_pf()
    return compose_chain(
        [
            pad(0, Unit(), 1),
            pad(0, delta_pf(), 1),
            pad(1, down, 1),
            pad(1, nabla_pf(), 0),
            pad(1, Counit(), 0),
        ],
        1,
    )


def up_pf_alt() -> ArrowTerm:
    """Mirror image of `up_pf`; evaluates to the same arrow."""
    down = down_pf()
    return compose_chain(
        [
            pad(1, Unit(), 0),
            pad(1, delta_pf(), 0),
            pad(1, down, 1),
            pad(0, nabla_pf(), 1),
            pad(0, Counit(), 1),
        ],
        1,
    )


def nabla_down_pf() -> ArrowTerm:
    """2 -> 1: merge, keeping only downward connections."""
    down = down_pf()
    return compose_chain([pad(0, down, 1), pad(1, down, 0), nabla_pf()], 2)


def delta_down_pf() -> ArrowTerm:
    """1 -> 2: co-merge, keeping only downward connections."""
    down = down_pf()
    return compose_chain([delta_pf(), pad(0, down, 1), pad(1, down, 0)], 1)


def nabla_ef() -> ArrowTerm:
    """2 -> 1 merge in EF: bridge then delete."""
    return compose_chain([HBar(), pad(0, Counit(), 1)], 2)


def delta_ef() -> ArrowTerm:
    """1 -> 2 co-merge in EF."""
    return compose_chain([pad(0, Unit(), 1), HBar()], 1)


def hbar_in_pf() -> ArrowTerm:
    """The undirected bridge expressed with the directed one."""
    return compose_chain([H(), Swap(), H()], 2)

