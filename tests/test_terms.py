"""Structural tests for the term language: typing, padding, builders."""
import random
import sys

import pytest
from hypothesis import given, strategies as st

from splitrel import terms
from splitrel.dsl import parse, print_term
from splitrel.fuzz import random_term
from splitrel.normalform import IotaNF, iota_nf_term
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
    Perm,
    Swap,
    TermType,
    TermTypeError,
    Unit,
    UnitK,
    category_of,
    compose_chain,
    counit_power,
    delta_down_pf,
    delta_ef,
    delta_pf,
    delta_unfold,
    down_pf,
    eta_term,
    etabar_term,
    hbar_in_pf,
    iota_term,
    nabla_down_pf,
    nabla_ef,
    nabla_pf,
    nabla_unfold,
    natural_term,
    pad,
    perm_factors,
    perm_term,
    plus,
    tau_acute,
    tau_grave,
    tau_rb,
    type_of,
    union_term,
    unit_power,
    up_pf,
    up_pf_alt,
    zero_term,
)


# ------------------------------------------------------------------ typing


@pytest.mark.parametrize(
    "term,expected",
    [
        (Id(0), (0, 0)),
        (Id(3), (3, 3)),
        (Unit(), (0, 1)),
        (Counit(), (1, 0)),
        (Swap(), (2, 2)),
        (H(), (2, 2)),
        (HBar(), (2, 2)),
        (NablaK(2), (4, 2)),
        (DeltaK(3), (3, 6)),
        (UnitK(3), (0, 3)),
        (CounitK(2), (2, 0)),
        (Pad(1, Unit(), 0), (1, 2)),
        (Pad(2, NablaK(1), 3), (7, 6)),
        (Comp(Counit(), Unit()), (0, 0)),
    ],
)
def test_type_of(term, expected):
    assert type_of(term) == TermType(*expected)


def test_type_of_composition_mismatch_names_both_types():
    with pytest.raises(TermTypeError) as exc:
        type_of(Comp(Unit(), Unit()))
    assert "0->1" in str(exc.value)
    assert "1 != 0" in str(exc.value)


def test_type_error_in_nested_subterm():
    bad = Pad(1, Comp(Swap(), Unit()), 0)
    with pytest.raises(TermTypeError):
        type_of(bad)


# ------------------------------------------------------------------ pad


def test_pad_zero_is_noop():
    t = Comp(H(), Swap())
    assert pad(0, t, 0) is t


def test_pad_of_identity_collapses():
    assert pad(1, Id(2), 3) == Id(6)


def test_pad_merges_nested_paddings():
    assert pad(1, Pad(2, Swap(), 0), 3) == Pad(3, Swap(), 3)


def test_pad_distributes_over_composition():
    t = Comp(H(), Swap())
    assert pad(1, t, 2) == Comp(Pad(1, H(), 2), Pad(1, Swap(), 2))


def test_pad_rejects_negative():
    with pytest.raises(ValueError):
        pad(-1, Swap(), 0)


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_pad_composes_additively(a, b, c, d):
    assert pad(a, pad(c, H(), d), b) == pad(a + c, H(), d + b)


def test_pad_types():
    t = pad(2, Unit(), 1)
    assert type_of(t) == TermType(3, 4)


def _recursive_pad(left, t, right):
    # the definition `pad` follows, one recursion per node
    if left == 0 and right == 0:
        return t
    if isinstance(t, Id):
        return Id(left + t.n + right)
    if isinstance(t, Pad):
        return _recursive_pad(left + t.left, t.body, t.right + right)
    if isinstance(t, Comp):
        return Comp(
            _recursive_pad(left, t.after, right),
            _recursive_pad(left, t.before, right),
        )
    return Pad(left, t, right)


def test_pad_agrees_with_its_recursive_definition():
    rng = random.Random(8)
    for category in Category:
        for _ in range(200):
            t = random_term(rng, category, max_depth=5)
            left, right = rng.randrange(3), rng.randrange(3)
            assert pad(left, t, right) == _recursive_pad(left, t, right)
    hand_built = Pad(1, Comp(Pad(0, H(), 1), Comp(Swap(), Id(2))), 0)
    assert pad(2, hand_built, 1) == _recursive_pad(2, hand_built, 1)


def test_pad_walks_a_long_chain_without_recursing():
    depth = 5000
    assert depth > sys.getrecursionlimit()
    factors = [pad(k % 3, H(), 2 - k % 3) for k in range(depth)]
    padded = pad(1, compose_chain(factors, 4), 2)
    # walk the before spine with a loop: recursive `==` would overflow
    seen = []
    node = padded
    while isinstance(node, Comp):
        seen.append(node.after)
        node = node.before
    seen.append(node)
    expected = [Pad(1 + k % 3, H(), 4 - k % 3) for k in reversed(range(depth))]
    assert seen == expected


# ------------------------------------------------------------------ plus


def test_plus_structure_and_type():
    s = plus(Unit(), Counit())
    assert s == Comp(Pad(1, Counit(), 0), Pad(0, Unit(), 1))
    assert type_of(s) == TermType(1, 1)


def test_plus_with_identities():
    s = plus(Id(2), Swap())
    assert s == Pad(2, Swap(), 0)
    assert type_of(s) == TermType(4, 4)
    assert plus(Swap(), Id(3)) == Pad(0, Swap(), 3)
    assert plus(Id(2), Id(3)) == Id(5)
    assert plus(H(), Id(0)) == H()
    assert plus(Id(0), H()) == H()


def test_plus_rejects_mixed_signatures():
    with pytest.raises(TermTypeError):
        plus(H(), NablaK(1))


@pytest.mark.parametrize(
    "f, g, message",
    [
        (H(), NablaK(1), "term mixes relational and split-preorder generators"),
        (Swap(), UnitK(1), "term mixes relational and split-preorder generators"),
        (H(), HBar(), "term mixes the directed and undirected bridge generators"),
        # typing comes before the signature check
        (Comp(Swap(), Id(3)), NablaK(1), "cannot compose 3->3 with 2->2: 3 != 2"),
        (NablaK(1), Comp(H(), Id(1)), "cannot compose 1->1 with 2->2: 1 != 2"),
    ],
)
def test_plus_error_messages_are_pinned(f, g, message):
    with pytest.raises(TermTypeError) as raised:
        plus(f, g)
    assert str(raised.value) == message


# ------------------------------------------------------------------ categories


def test_category_of_leaves():
    assert category_of(H()) is Category.PF
    assert category_of(HBar()) is Category.EF
    assert category_of(NablaK(2)) is Category.RB
    assert category_of(UnitK(1)) is Category.RB


def test_category_of_neutral_terms_uses_default():
    t = Comp(Swap(), Swap())
    assert category_of(t) is Category.PF
    assert category_of(t, default=Category.EF) is Category.EF
    assert category_of(Id(3), default=Category.RB) is Category.RB


def test_category_of_neutral_generators_never_rb():
    with pytest.raises(TermTypeError):
        category_of(Unit(), default=Category.RB)


def test_category_mixing_raises():
    with pytest.raises(TermTypeError):
        category_of(Comp(H(), HBar()))
    with pytest.raises(TermTypeError):
        category_of(Comp(NablaK(1), Pad(0, Swap(), 0)))


# ------------------------------------------------------------------ chains


def test_compose_chain_empty_is_identity():
    assert compose_chain([], 3) == Id(3)


def test_compose_chain_drops_identity_factors():
    assert compose_chain([Id(2), Swap(), Id(2)], 2) == Swap()


def test_compose_chain_application_order():
    t = compose_chain([Unit(), Pad(0, Unit(), 1)], 0)
    assert t == Comp(Pad(0, Unit(), 1), Unit())
    assert type_of(t) == TermType(0, 2)


# ------------------------------------------------------------------ permutations


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    p = Perm((2, 0, 1))
    assert p.size == 3
    assert p(0) == 2
    assert p.inverse() == Perm((1, 2, 0))
    assert Perm.identity(4) == Perm((0, 1, 2, 3))


def _apply_adjacent(factors, n):
    # oracle: the function realized by applying adjacent swaps in order
    images = list(range(n))
    for a in factors:
        images = [
            x + 1 if x == a else x - 1 if x == a + 1 else x for x in images
        ]
    return tuple(images)


def test_perm_factors_frozen_cases():
    assert perm_factors(Perm.identity(3)) == []
    assert perm_factors(Perm((1, 0))) == [0]
    assert perm_factors(Perm((1, 2, 0))) == [1, 0]


def test_perm_factors_realize_permutation():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 6)
        images = list(range(n))
        rng.shuffle(images)
        p = Perm(tuple(images))
        assert _apply_adjacent(perm_factors(p), n) == p.images


def test_perm_term_small_cases():
    assert perm_term(Perm.identity(3)) == Id(3)
    assert perm_term(Perm((1, 0))) == Swap()
    t = perm_term(Perm((1, 2, 0)))
    assert t == Comp(Pad(0, Swap(), 1), Pad(1, Swap(), 0))
    assert type_of(t) == TermType(3, 3)


# ------------------------------------------------------------------ bridges


def test_eta_base_case_is_bare_bridge():
    assert eta_term(0, 1, 2) == H()
    assert etabar_term(0, 1, 2) == HBar()


def test_eta_reversed_pair():
    assert eta_term(1, 0, 2) == Comp(Swap(), Comp(H(), Swap()))


def test_eta_routed_case():
    t = eta_term(0, 2, 4)
    assert t == Comp(
        Pad(1, Swap(), 1),
        Comp(Pad(0, H(), 2), Pad(1, Swap(), 1)),
    )
    assert type_of(t) == TermType(4, 4)


def test_eta_validation():
    with pytest.raises(ValueError):
        eta_term(0, 0, 3)
    with pytest.raises(ValueError):
        eta_term(0, 3, 3)
    with pytest.raises(ValueError):
        eta_term(0, 1, 1)


def test_etabar_uses_undirected_bridge():
    assert category_of(etabar_term(2, 0, 3)) is Category.EF


# ------------------------------------------------------------------ powers and zero


def test_unit_power_structure():
    assert unit_power(0) == Id(0)
    assert unit_power(1) == Unit()
    assert unit_power(2) == Comp(Pad(0, Unit(), 1), Unit())
    assert type_of(unit_power(5)) == TermType(0, 5)


def test_counit_power_structure():
    assert counit_power(0) == Id(0)
    assert counit_power(1) == Counit()
    assert counit_power(2) == Comp(Counit(), Pad(0, Counit(), 1))
    assert type_of(counit_power(4)) == TermType(4, 0)


def test_rb_powers_are_primitive():
    assert unit_power(3, Category.RB) == UnitK(3)
    assert counit_power(2, Category.RB) == CounitK(2)


def test_zero_term():
    assert zero_term(0, 0) == Id(0)
    assert zero_term(0, 0, Category.RB) == Id(0)
    assert zero_term(0, 2) == unit_power(2)
    assert zero_term(3, 0) == counit_power(3)
    assert type_of(zero_term(2, 3)) == TermType(2, 3)
    assert zero_term(0, 3, Category.RB) == UnitK(3)
    assert category_of(zero_term(1, 1, Category.RB)) is Category.RB


# ------------------------------------------------------------------ relational builders


def test_iota_type_and_category():
    t = iota_term(1, 0, 3, 2)
    assert type_of(t) == TermType(3, 2)
    assert category_of(t) is Category.RB


def test_iota_bounds():
    with pytest.raises(ValueError):
        iota_term(3, 0, 3, 2)
    with pytest.raises(ValueError):
        iota_term(0, 2, 3, 2)


def test_union_term_type():
    t = union_term(iota_term(0, 0, 2, 2), iota_term(1, 1, 2, 2))
    assert type_of(t) == TermType(2, 2)


def test_union_term_rejects_nonparallel():
    with pytest.raises(TermTypeError):
        union_term(UnitK(1), UnitK(2))


def test_union_term_rejects_split_preorder_arguments():
    # the fold and co-fold of the union are relational
    for f, g in [(H(), Swap()), (Swap(), Swap()), (HBar(), Id(2))]:
        with pytest.raises(TermTypeError) as raised:
            union_term(f, g)
        assert str(raised.value) == (
            "term mixes relational and split-preorder generators"
        )


@pytest.mark.parametrize(
    "f, g, message",
    [
        (UnitK(1), UnitK(2), "union needs parallel arrows, got 0->1 and 0->2"),
        (H(), NablaK(1), "union needs parallel arrows, got 2->2 and 2->1"),
        (Comp(Swap(), Id(3)), Id(3), "cannot compose 3->3 with 2->2: 3 != 2"),
        (Id(2), Comp(NablaK(1), Id(1)), "cannot compose 1->1 with 2->1: 1 != 2"),
        (NablaK(1), Swap(), "union needs parallel arrows, got 2->1 and 2->2"),
        (UnitK(2), Comp(Swap(), UnitK(2)),
         "term mixes relational and split-preorder generators"),
    ],
)
def test_union_term_error_messages_are_pinned(f, g, message):
    with pytest.raises(TermTypeError) as raised:
        union_term(f, g)
    assert str(raised.value) == message


def test_tau_rb_types():
    assert type_of(tau_rb()) == TermType(2, 2)
    alt = parse("plus(pad(0, counit, 1), pad(1, counit, 0)) . delta(2)", Category.RB)
    assert type_of(alt) == TermType(2, 2)
    assert category_of(tau_rb()) is Category.RB


def test_tau_rotations():
    assert tau_acute(0) == Id(1)
    assert tau_grave(0) == Id(1)
    for k in range(4):
        assert type_of(tau_acute(k)) == TermType(k + 1, k + 1)
        assert type_of(tau_grave(k)) == TermType(k + 1, k + 1)


def test_unfold_types():
    for k in range(4):
        assert type_of(nabla_unfold(k)) == TermType(2 * k + 2, k + 1)
        assert type_of(delta_unfold(k)) == TermType(k + 1, 2 * k + 2)


# ------------------------------------------------------------------ split-preorder builders


def test_nabla_pf_structure():
    t = nabla_pf()
    assert t == Comp(
        Pad(0, Counit(), 1),
        Comp(H(), Comp(Swap(), H())),
    )
    assert type_of(t) == TermType(2, 1)


def test_merge_family_types():
    assert type_of(delta_pf()) == TermType(1, 2)
    assert type_of(down_pf()) == TermType(1, 1)
    assert type_of(up_pf()) == TermType(1, 1)
    assert type_of(up_pf_alt()) == TermType(1, 1)
    assert type_of(nabla_down_pf()) == TermType(2, 1)
    assert type_of(delta_down_pf()) == TermType(1, 2)
    assert type_of(nabla_ef()) == TermType(2, 1)
    assert type_of(delta_ef()) == TermType(1, 2)
    assert type_of(hbar_in_pf()) == TermType(2, 2)
    merge, down, split = (f"({print_term(t())})" for t in (nabla_pf, down_pf, delta_pf))
    h_via_nabla = parse(
        f"pad(2, {merge}, 2) . pad(2, {down}, 3) . pad(1, {split}, 3)", Category.PF
    )
    assert type_of(h_via_nabla) == TermType(5, 5)


def test_merge_family_categories():
    assert category_of(nabla_pf()) is Category.PF
    assert category_of(nabla_ef()) is Category.EF
    assert category_of(hbar_in_pf()) is Category.PF


def test_natural_term():
    assert natural_term(0) == Id(0)
    for n in (1, 2, 3):
        assert type_of(natural_term(n)) == TermType(n, n)
        assert type_of(natural_term(n, Category.EF)) == TermType(n, n)
    assert category_of(natural_term(2)) is Category.PF
    assert category_of(natural_term(2, Category.EF)) is Category.EF
    with pytest.raises(ValueError):
        natural_term(2, Category.RB)


# ------------------------------------------------------------------ walks of the builders


def test_iota_builders_neither_type_nor_resolve(count_calls):
    full = IotaNF(3, 3, tuple((i, j) for i in range(3) for j in range(3)))
    # the same terms from the checking builders
    rb = Category.RB
    singles = [
        plus(plus(zero_term(i, j, rb), Id(1)), zero_term(2 - i, 2 - j, rb))
        for i, j in full.pairs
    ]
    union = singles[-1]
    for single in reversed(singles[:-1]):
        union = union_term(single, union)
    expected = [singles[5], union]
    typed = count_calls(terms, "type_of")
    kinds = count_calls(terms, "_generator_kinds")
    built = [iota_term(1, 2, 3, 3), iota_nf_term(full)]
    assert (len(typed), len(kinds)) == (0, 0)
    assert built == expected
    assert type_of(built[1]) == TermType(3, 3)


def test_union_term_types_each_argument_once(count_calls):
    f, g = iota_term(0, 1, 2, 2), union_term(iota_term(1, 0, 2, 2), Id(2))
    typed = count_calls(terms, "type_of")
    union = union_term(f, g)
    assert typed == [(f,), (g,)]
    assert union == Comp(NablaK(2), Comp(plus(f, g), DeltaK(2)))
