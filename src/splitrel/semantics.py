"""Evaluation of terms into split preorders, split equivalences, relations.

PF and EF terms evaluate to `SplitRelation` values (split preorders;
for EF always split equivalences), reading each picture line as a
double link.  RB terms evaluate to `BinRel`, reading lines as single
downward pairs.  Composition is closure-then-deletion on the split
side and plain relational composition on the RB side.

Equality of two same-type terms is decided by comparing values; for
these three models that coincides with derivability from the
presentations.

Inside the evaluator a value is `(n, m, S, M)`: its bit rows in one int
M, row r at bits [r·S, r·S + S), with a power-of-two stride S ≥ 8 of its
own.  A split value has a row per point of the flat n + m points
(sources, then targets: the indexing `EtaNF` uses), an RB value a row of
target bits per source.  The three models are categories, so composition
is associative and a term's value does not depend on how it is
bracketed: the whole term is walked by a loop as one flat spine of its
leaves in application order, each under the paddings that enclose it,
added up.  Each step composes the value so far with one leaf under its
padding, taking the leaf's value as it is and never building the padded
rows; a padded first leaf is the after factor of an identity.  A
composition keeps the before factor's stride while the glued points fit
and otherwise re-strides it once, so strides only grow along a spine; a
leaf is read at its own stride.  A strand only renames a point, and
every intermediate split value is a preorder, so a split composition
closes only through the leaf's source points.  `_rows` unpacks only the
result, as `(n, m, rows)`.
Each signature reads only its own generators: PF has no `HBar`, EF no
`H`, and RB only the relational leaves, so a generator of another
signature raises inside the walk.  `equal` with a category therefore
compares rows through the private `_same_value` at once, and resolves
the signature with `resolve_category` only when that walk raises, so
that the resolver's error, when there is one, is the one reported.
Without a category, `equal` resolves first.  `eval_term` resolves, then
reads `_boundary(_rows(...))`.  The command line calls the second step
of each directly: its parser admits only atoms of the command's
signature, so the terms need no resolving.  Normal forms and separation
read their payloads and pivots from rows.  A `SplitRelation` or
`BinRel` is built only for a public result, by `eval_term` and for the
results of a separation witness, and it takes the rows as they are: no
pair set is built unless its `.pairs` view is read.
Each public call evaluates through a memo of its own, keyed on each
leaf and each prefix of the spine, so a leaf is read once and a chain of
factors that starts two terms of the call is composed once, and nothing
is kept between calls.  `eq --separate` passes the memo of its
comparison on to the separation.  The memo's keys are the truth and its
values a cache: a value wider than `relations._ONES_CACHE_BYTES` is
dropped once the spine has moved past it, and is composed again from its
key chain only if a later term extends that prefix or ends on it, so a
long spine of wide values holds only the few it is composing.
"""
from __future__ import annotations

from splitrel.relations import _ONES_CACHE_BYTES, BinRel, Packed, SplitRelation
from splitrel.relations import compose_rel_rows, compose_rows, diagonal
from splitrel.relations import pack_rows, stride_for, unpack_rows
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
    category_of,
    forced_category,
    type_of,
)

SemValue = SplitRelation | BinRel

# (n, m, rows), as `_rows` unpacks them
Rows = tuple[int, int, list[int]]


def resolve_category(
    *terms: ArrowTerm, category: Category | None = None
) -> Category:
    """Join the categories forced by `terms` with an optional override.

    Neutral terms adopt the joined category; conflicting forced
    categories (or a forced category contradicting `category`) raise.
    """
    joined: Category | None = None
    neutral: list[ArrowTerm] = []
    for t in terms:
        forced = forced_category(t)
        if forced is None:
            neutral.append(t)
        elif joined is None:
            joined = forced
        elif joined is not forced:
            raise TermTypeError(
                f"category mismatch: {joined.value} vs {forced.value}"
            )
    if category is not None and joined is not None and joined is not category:
        raise TermTypeError(
            f"term is {joined.value} but {category.value} was requested"
        )
    resolved = category or joined or Category.PF
    if resolved is Category.RB:
        # only a neutral term can still clash: shared PF/EF generators
        for t in neutral:
            category_of(t, default=resolved)
    return resolved


def _check_middle(before: Packed, left: int, body: Packed, right: int) -> None:
    # the error `type_of` raises for composing with Pad(left, body, right)
    if before[1] != left + body[0] + right:
        before_t = TermType(*before[:2])
        after_t = TermType(left + body[0] + right, left + body[1] + right)
        raise TermTypeError(
            f"cannot compose {before_t} with {after_t}: "
            f"{before_t.tgt} != {after_t.src}"
        )


# Split values: bit rows over the flat source-then-target points.

_SHARED_LEAVES: dict[ArrowTerm, tuple[int, int, tuple[int, ...]]] = {
    Unit(): (0, 1, (0b1,)),
    Counit(): (1, 0, (0b1,)),
    # points s0, s1, t0, t1 are bits 0, 1, 2, 3
    Swap(): (2, 2, (0b1001, 0b0110, 0b0110, 0b1001)),
}
# each signature reads only its own bridge
_PF_LEAVES = {**_SHARED_LEAVES, H(): (2, 2, (0b1111, 0b1010, 0b1111, 0b1010))}
_EF_LEAVES = {**_SHARED_LEAVES, HBar(): (2, 2, (0b1111, 0b1111, 0b1111, 0b1111))}


def _split_leaf_of(leaves: dict, category: Category):
    packed = {t: (n, m, 8, pack_rows(rows, 8)) for t, (n, m, rows) in leaves.items()}

    def leaf(t: ArrowTerm) -> Packed:
        if isinstance(t, Id):  # rows i and n + i hold bits i and n + i
            stride = stride_for(2 * t.n)
            half = diagonal(t.n, stride)
            half |= half << t.n
            return t.n, t.n, stride, half | half << t.n * stride
        if t not in packed:
            raise TermTypeError(f"not a generator of {category.value}: {t!r}")
        return packed[t]

    return leaf


def _split_then_padded(before: Packed, left: int, body: Packed, right: int) -> Packed:
    start = before[0] + left  # the body's sources, glued
    return compose_rows(before, left, body, right, range(start, start + body[0]))


# Relational values: one row of target bits per source.


def _rel_leaf(t: ArrowTerm) -> Packed:
    match t:
        case Id(n):
            return n, n, stride_for(n), diagonal(n, stride_for(n))
        case NablaK(k):  # the diagonal twice, one below the other
            half = diagonal(k, stride_for(k))
            return 2 * k, k, stride_for(k), half | half << k * stride_for(k)
        case DeltaK(k):  # the diagonal twice, side by side
            half = diagonal(k, stride_for(2 * k))
            return k, 2 * k, stride_for(2 * k), half | half << k
        case UnitK(k):
            return 0, k, stride_for(k), 0
        case CounitK(k):
            return k, 0, 8, 0
        case _:
            raise TermTypeError(f"not a relational generator: {t!r}")


# (leaf, composition with a padding) of each reading
_MODELS = {
    Category.PF: (_split_leaf_of(_PF_LEAVES, Category.PF), _split_then_padded),
    Category.EF: (_split_leaf_of(_EF_LEAVES, Category.EF), _split_then_padded),
    Category.RB: (_rel_leaf, compose_rel_rows),
}


def _rows(t: ArrowTerm, category: Category, memo: dict) -> Rows:
    """The rows of `t` in `category`, sharing `memo` with earlier terms.

    The walk also types the term: an ill-typed composition raises the
    error `type_of` raises, and the value's sizes are the term's type.
    The memo holds packed values; only the result is unpacked.
    """
    n, m, stride, packed = _walk(t, _MODELS[category], memo)[1]
    return n, m, unpack_rows(n if category is Category.RB else n + m, stride, packed)


def _walk(term: ArrowTerm, model: tuple, memo: dict) -> tuple[int, Packed]:
    # The whole term is one flat spine of padded leaves, walked by a loop
    # over an explicit stack of (factor, left, right): a `Comp` pushes its
    # after factor with the padding so far and the loop descends into its
    # before factor, and a `Pad` adds its strands to the padding.  Each
    # leaf, in application order, is composed onto the value so far under
    # the key `(left, leaf slot, right, before slot)`; a padded first leaf
    # is the after factor of an identity.  A padding strand only renames a
    # point, so padded rows are never built.  The slot of a key is its
    # entry's position in `memo`.  Composition is associative, so equal
    # chains get equal keys however they are bracketed, and no key hashes
    # more than one tree level.  The keys are the truth and the values a
    # cache: once the spine has moved past a composition value wider than
    # `_ONES_CACHE_BYTES`, its entry keeps only `(slot, None)`, and a later
    # term that extends it, or ends on it, rebuilds it from its key chain.
    leaf_of, compose = model
    stack = [(term, 0, 0)]
    key = entry = None
    while stack:
        t, left, right = stack.pop()
        while isinstance(t, Comp):
            stack.append((t.after, left, right))
            t = t.before
        if isinstance(t, Pad):
            left += t.left
            right += t.right
            t = t.body
            if isinstance(t, (Comp, Pad)):
                stack.append((t, left, right))
                continue
        leaf = memo.get(t)
        if leaf is None:
            leaf = memo[t] = (len(memo), leaf_of(t))
        if entry is None:
            if not left and not right:
                key, entry = t, leaf
                continue
            key = Id(left + leaf[1][0] + right)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = (len(memo), leaf_of(key))
        before_slot, before = entry
        after_key = (left, leaf[0], right, before_slot)
        entry = memo.get(after_key)
        if entry is None:
            if before is None:
                before = _rebuild(key, compose, memo)
            if before[1] != left + leaf[1][0] + right:
                # the walk meets a mismatch just when the term is ill-typed,
                # so `type_of` raises it, as a recursive walk words it
                type_of(term)
                _check_middle(before, left, leaf[1], right)
            entry = memo[after_key] = (len(memo), compose(before, left, leaf[1], right))
            if type(key) is tuple and before[3].bit_length() > 8 * _ONES_CACHE_BYTES:
                memo[key] = (before_slot, None)
        key = after_key
    if entry[1] is None:
        return entry[0], _rebuild(key, compose, memo)
    return entry


def _rebuild(key: tuple, compose, memo: dict) -> Packed:
    # the dropped value of `key`, composed again from the nearest value on
    # its key chain and stored back; slots are insertion positions, and no
    # entry is ever deleted, so the list of keys recovers a slot's key
    keys = list(memo)
    chain = []
    while (value := memo[key][1]) is None:
        chain.append(key)
        key = keys[key[3]]
    for left, leaf_slot, right, _ in reversed(chain):
        value = compose(value, left, memo[keys[leaf_slot]][1], right)
    memo[chain[0]] = (memo[chain[0]][0], value)
    return value


def _boundary(value: Rows, category: Category) -> SemValue:
    return (BinRel if category is Category.RB else SplitRelation)._of_rows(*value)


def eval_term(t: ArrowTerm, category: Category | None = None) -> SemValue:
    """The value of a term in its model.

    Neutral terms evaluate in `category` (default PF); the PF and EF
    readings of shared generators agree, so the value is the same.
    """
    resolved = resolve_category(t, category=category)
    return _boundary(_rows(t, resolved, {}), resolved)


def equal(
    f: ArrowTerm, g: ArrowTerm, category: Category | None = None
) -> bool:
    """Decide derivable equality of two parallel same-category terms.

    Given a `category`, the evaluation walk checks the signature: a
    generator of another signature raises there.  Only then are the terms
    resolved, so that a signature error, which `resolve_category` words,
    comes before any typing error of the walk.
    """
    if category is None:
        return _same_value(f, g, resolve_category(f, g), {})
    try:
        return _same_value(f, g, category, {})
    except Exception:
        resolve_category(f, g, category=category)
        raise


def _same_value(f: ArrowTerm, g: ArrowTerm, category: Category, memo: dict) -> bool:
    """Whether `f` and `g`, both in `category`, have the same rows; `memo`
    keeps their rows for the caller."""
    f_value = _rows(f, category, memo)
    g_value = _rows(g, category, memo)
    if f_value[:2] != g_value[:2]:
        f_type, g_type = TermType(*f_value[:2]), TermType(*g_value[:2])
        raise TermTypeError(f"type mismatch: {f_type} vs {g_type}")
    return f_value == g_value
