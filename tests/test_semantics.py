"""Evaluation tests: generator values, functoriality, equality decisions."""
import random

import pytest

from splitrel.catalog import axiom_catalog, instances, instantiate
from splitrel.dsl import parse, print_term
from splitrel.fuzz import TermSampler, random_term, random_term_pair
from splitrel.relations import (
    BinRel,
    Node,
    SplitRelation,
    compose_split,
    identity_split,
    src,
    strict_part,
    tgt,
    transitive_closure,
)
from splitrel.semantics import (
    equal,
    eval_term,
    resolve_category,
)
from splitrel.terms import (
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
    TermTypeError,
    Unit,
    UnitK,
    delta_down_pf,
    delta_ef,
    delta_pf,
    down_pf,
    eta_term,
    etabar_term,
    hbar_in_pf,
    iota_term,
    nabla_down_pf,
    nabla_ef,
    nabla_pf,
    natural_term,
    pad,
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


def _loops(n, m):
    pairs = {(src(i), src(i)) for i in range(n)}
    return pairs | {(tgt(j), tgt(j)) for j in range(m)}


# ------------------------------------------------------------------ generator values


def test_eval_identity():
    assert eval_term(Id(3)) == identity_split(3)
    assert eval_term(Id(0)) == SplitRelation(0, 0, set())


def test_eval_unit_counit():
    assert eval_term(Unit()) == SplitRelation(0, 1, {(tgt(0), tgt(0))})
    assert eval_term(Counit()) == SplitRelation(1, 0, {(src(0), src(0))})


def test_eval_swap():
    expected = _loops(2, 2) | {
        (src(0), tgt(1)),
        (tgt(1), src(0)),
        (src(1), tgt(0)),
        (tgt(0), src(1)),
    }
    assert eval_term(Swap()) == SplitRelation(2, 2, expected)


def test_eval_h_strict_pairs_frozen():
    expected = {
        (src(0), tgt(0)),
        (tgt(0), src(0)),
        (src(1), tgt(1)),
        (tgt(1), src(1)),
        (src(0), src(1)),
        (src(0), tgt(1)),
        (tgt(0), src(1)),
        (tgt(0), tgt(1)),
    }
    assert strict_part(eval_term(H())).pairs == frozenset(expected)


def test_eval_h_is_closure_of_raw_picture():
    # one bar between the two double-linked strands generates the rest
    raw = _loops(2, 2) | {
        (src(0), tgt(0)),
        (tgt(0), src(0)),
        (src(1), tgt(1)),
        (tgt(1), src(1)),
        (src(0), src(1)),
    }
    assert eval_term(H()) == transitive_closure(SplitRelation(2, 2, raw))


def test_eval_hbar_single_class():
    nodes = [src(0), src(1), tgt(0), tgt(1)]
    expected = {(x, y) for x in nodes for y in nodes}
    value = eval_term(HBar())
    assert value == SplitRelation(2, 2, expected)
    assert value.is_equivalence()


def test_eval_pad_adds_identity_strands():
    assert eval_term(Pad(1, Unit(), 0)) == SplitRelation(
        1, 2, _loops(1, 2) | {(src(0), tgt(0)), (tgt(0), src(0))}
    )
    assert eval_term(pad(2, Id(1), 1)) == identity_split(4)


def test_eval_composition_basics():
    assert eval_term(Comp(Counit(), Unit())) == eval_term(Id(0))
    assert eval_term(Comp(Swap(), Swap())) == identity_split(2)


# ------------------------------------------------------------------ RB generator values


def test_eval_rel_generators():
    assert eval_term(Id(2), Category.RB) == BinRel(2, 2, {(0, 0), (1, 1)})
    assert eval_term(NablaK(2)) == BinRel(
        4, 2, {(0, 0), (1, 1), (2, 0), (3, 1)}
    )
    assert eval_term(DeltaK(2)) == BinRel(
        2, 4, {(0, 0), (1, 1), (0, 2), (1, 3)}
    )
    assert eval_term(UnitK(3)) == BinRel(0, 3, set())
    assert eval_term(CounitK(1)) == BinRel(1, 0, set())
    assert eval_term(Pad(1, UnitK(1), 0)) == BinRel(1, 2, {(0, 0)})


def test_eval_rel_fold_unfold():
    assert eval_term(parse("nabla(1) . delta(1)")) == BinRel(1, 1, {(0, 0)})
    assert eval_term(parse("delta(1) . nabla(1)")) == BinRel(
        2, 2, {(0, 0), (0, 1), (1, 0), (1, 1)}
    )


def test_eval_tau_rb():
    expected = BinRel(2, 2, {(0, 1), (1, 0)})
    assert eval_term(tau_rb()) == expected
    # the transposition through the counits and the co-fold
    alt = parse("plus(pad(0, counit, 1), pad(1, counit, 0)) . delta(2)", Category.RB)
    assert eval_term(alt) == expected


def test_eval_tau_rotations():
    assert eval_term(tau_acute(2)) == BinRel(3, 3, {(0, 1), (1, 2), (2, 0)})
    assert eval_term(tau_grave(2)) == BinRel(3, 3, {(0, 2), (1, 0), (2, 1)})


def test_eval_iota_and_union():
    assert eval_term(iota_term(2, 0, 3, 2)) == BinRel(3, 2, {(2, 0)})
    t = union_term(iota_term(0, 0, 2, 2), iota_term(1, 0, 2, 2))
    assert eval_term(t) == BinRel(2, 2, {(0, 0), (1, 0)})
    assert eval_term(zero_term(2, 3, Category.RB)) == BinRel(2, 3, set())


# ------------------------------------------------------------------ derived PF arrows


def test_eval_nabla_delta_pf():
    # merge: everything in one class around the single target point
    nabla = eval_term(nabla_pf())
    nodes = [src(0), src(1), tgt(0)]
    assert nabla == SplitRelation(2, 1, {(x, y) for x in nodes for y in nodes})
    delta = eval_term(delta_pf())
    nodes = [src(0), tgt(0), tgt(1)]
    assert delta == SplitRelation(1, 2, {(x, y) for x in nodes for y in nodes})


def test_eval_down_and_up():
    down = eval_term(down_pf())
    assert down == SplitRelation(
        1, 1, _loops(1, 1) | {(src(0), tgt(0))}
    )
    up = eval_term(up_pf())
    assert up == SplitRelation(1, 1, _loops(1, 1) | {(tgt(0), src(0))})
    assert eval_term(up_pf_alt()) == up


def test_eval_nabla_down():
    value = eval_term(nabla_down_pf())
    assert value == SplitRelation(
        2, 1, _loops(2, 1) | {(src(0), tgt(0)), (src(1), tgt(0))}
    )
    value = eval_term(delta_down_pf())
    assert value == SplitRelation(
        1, 2, _loops(1, 2) | {(src(0), tgt(0)), (src(0), tgt(1))}
    )


def test_eval_h_via_nabla():
    # the padded directed bridge through co-merge, down and merge
    merge, down, split = (f"({print_term(t())})" for t in (nabla_pf, down_pf, delta_pf))
    for n, m in [(0, 0), (1, 2)]:
        text = (f"pad({n + 1}, {merge}, {m}) . pad({n + 1}, {down}, {1 + m})"
                f" . pad({n}, {split}, {1 + m})")
        assert equal(parse(text, Category.PF), pad(n, H(), m))


def test_eval_ef_merges():
    nabla = eval_term(nabla_ef())
    nodes = [src(0), src(1), tgt(0)]
    assert nabla == SplitRelation(2, 1, {(x, y) for x in nodes for y in nodes})
    assert eval_term(delta_ef()).is_equivalence()


def test_hbar_desugaring_matches_ef_generator():
    assert eval_term(hbar_in_pf()) == eval_term(HBar())


def test_eta_values():
    value = eval_term(eta_term(2, 0, 3))
    extra = {
        (src(2), src(0)),
        (src(2), tgt(0)),
        (tgt(2), src(0)),
        (tgt(2), tgt(0)),
    }
    assert value == SplitRelation(3, 3, identity_split(3).pairs | extra)
    assert eval_term(etabar_term(0, 1, 2)) == eval_term(HBar())


def test_natural_term_evaluates_to_identity():
    for n in range(4):
        assert equal(natural_term(n), Id(n))
        assert equal(natural_term(n, Category.EF), Id(n), Category.EF)


# ------------------------------------------------------------------ resolution and errors


def test_resolve_category():
    assert resolve_category(H()) is Category.PF
    assert resolve_category(Swap()) is Category.PF
    assert resolve_category(Swap(), category=Category.EF) is Category.EF
    assert resolve_category(Swap(), HBar()) is Category.EF
    assert resolve_category(Id(1), NablaK(1)) is Category.RB


def test_resolve_category_conflicts():
    with pytest.raises(TermTypeError):
        resolve_category(H(), HBar())
    with pytest.raises(TermTypeError):
        resolve_category(H(), category=Category.EF)
    with pytest.raises(TermTypeError):
        resolve_category(Unit(), category=Category.RB)


def test_equal_requires_matching_types():
    with pytest.raises(TermTypeError):
        equal(Id(1), Id(2))
    with pytest.raises(TermTypeError):
        equal(H(), HBar())


_SIGNATURE_ERRORS = [
    # a term from another signature than the one requested
    (H(), H(), Category.EF, "term is PF but EF was requested"),
    (HBar(), Swap(), Category.PF, "term is EF but PF was requested"),
    (NablaK(1), NablaK(1), Category.PF, "term is RB but PF was requested"),
    (Swap(), H(), Category.RB, "term is PF but RB was requested"),
    # both bridges
    (Comp(H(), HBar()), Id(2), Category.PF,
     "term mixes the directed and undirected bridge generators"),
    (H(), HBar(), Category.EF, "category mismatch: PF vs EF"),
    # a neutral split-preorder generator under RB
    (Unit(), Unit(), Category.RB,
     "term uses split-preorder generators, not relational ones"),
    (Comp(Counit(), Unit()), Id(0), Category.RB,
     "term uses split-preorder generators, not relational ones"),
    # ill-typed and in the wrong signature: the signature error wins
    (Comp(HBar(), Comp(Swap(), Id(3))), Id(2), Category.PF,
     "term is EF but PF was requested"),
    (Id(2), Comp(Unit(), Comp(NablaK(1), Id(3))), Category.RB,
     "term mixes relational and split-preorder generators"),
    (Comp(Swap(), Id(3)), Id(3), Category.RB,
     "term uses split-preorder generators, not relational ones"),
]


@pytest.mark.parametrize("f, g, category, message", _SIGNATURE_ERRORS)
def test_equal_signature_error_messages_are_pinned(f, g, category, message):
    with pytest.raises(TermTypeError) as raised:
        equal(f, g, category)
    assert str(raised.value) == message


def test_equal_type_error_messages_are_pinned():
    with pytest.raises(TermTypeError, match=r"^type mismatch: 1->1 vs 2->2$"):
        equal(Id(1), Id(2), Category.PF)
    with pytest.raises(
        TermTypeError, match=r"^cannot compose 3->3 with 2->2: 3 != 2$"
    ):
        equal(Comp(H(), Id(3)), H(), Category.PF)


# ------------------------------------------------------------------ laws on random terms


def test_equal_reflexive_on_random_terms():
    rng = random.Random(23)
    for category in Category:
        for _ in range(60):
            f = random_term(rng, category)
            assert equal(f, f, category)


def test_functoriality_identity_laws():
    rng = random.Random(29)
    for category in Category:
        for _ in range(60):
            f = random_term(rng, category)
            n, m = type_of(f)
            assert eval_term(Comp(Id(m), f), category) == eval_term(f, category)
            assert eval_term(Comp(f, Id(n)), category) == eval_term(f, category)


def test_functoriality_associativity():
    rng = random.Random(31)
    for category in Category:
        sampler = TermSampler(rng, category, max_depth=3)
        for _ in range(60):
            f = sampler.term()
            g = sampler.with_source(type_of(f).tgt, 2)
            h = sampler.with_source(type_of(g).tgt, 2)
            left = Comp(Comp(h, g), f)
            right = Comp(h, Comp(g, f))
            assert eval_term(left, category) == eval_term(right, category)


def test_plus_bifunctoriality_instances():
    rng = random.Random(37)
    for category in Category:
        sampler = TermSampler(rng, category, max_depth=3)
        for _ in range(40):
            f1 = sampler.term()
            f2 = sampler.with_source(type_of(f1).tgt, 2)
            g1 = sampler.term()
            g2 = sampler.with_source(type_of(g1).tgt, 2)
            lhs = plus(Comp(f2, f1), Comp(g2, g1))
            rhs = Comp(plus(f2, g2), plus(f1, g1))
            assert eval_term(lhs, category) == eval_term(rhs, category)


def test_plus_other_orientation_agrees():
    rng = random.Random(41)
    for category in Category:
        sampler = TermSampler(rng, category, max_depth=3)
        for _ in range(40):
            f = sampler.term()
            g = sampler.term()
            n, m = type_of(f)
            k, l = type_of(g)
            other = Comp(pad(0, f, l), pad(n, g, 0))
            assert eval_term(plus(f, g), category) == eval_term(other, category)


def test_random_pairs_have_matching_types():
    rng = random.Random(43)
    for category in Category:
        for _ in range(30):
            f, g = random_term_pair(rng, category)
            assert type_of(f) == type_of(g)
            equal(f, g, category)  # must not raise


def test_eval_strict_part_of_ef_is_symmetric():
    rng = random.Random(47)
    for _ in range(40):
        f = random_term(rng, Category.EF)
        value = eval_term(f, Category.EF)
        assert value.is_equivalence()
        assert strict_part(value).is_symmetric()


# ------------------------------------------------------------------ pair-set oracle

# The evaluator as it was written on Node-pair sets: every value is a
# SplitRelation and every composition goes through compose_split.  The
# package evaluates on bit rows instead; these tests hold the two
# together.  Comparing the two sides of an axiom cannot see an error that
# both sides share, comparing against this oracle can.


def _strand_pairs(i, j):
    # full double link between source position i and target position j
    return {(src(i), tgt(j)), (tgt(j), src(i))}


def _split_value(n, m, extra):
    return SplitRelation(n, m, _loops(n, m) | extra)


def _pad_split(value, left, right):
    n, m = value.n, value.m
    pairs = {
        (Node(x.tag, x.pos + left), Node(y.tag, y.pos + left))
        for x, y in value.pairs
    }
    for k in range(left):
        pairs |= _strand_pairs(k, k)
    for k in range(right):
        pairs |= _strand_pairs(left + n + k, left + m + k)
    return _split_value(left + n + right, left + m + right, pairs)


def _eval_split(t, memo=None):
    # `memo`, when given, maps subterms already evaluated to their values
    if memo is not None and t in memo:
        return memo[t]
    match t:
        case Id(n):
            value = identity_split(n)
        case Unit():
            value = _split_value(0, 1, set())
        case Counit():
            value = _split_value(1, 0, set())
        case Swap():
            value = _split_value(2, 2, _strand_pairs(0, 1) | _strand_pairs(1, 0))
        case H():
            cross = {
                (src(0), src(1)),
                (src(0), tgt(1)),
                (tgt(0), src(1)),
                (tgt(0), tgt(1)),
            }
            value = _split_value(
                2, 2, _strand_pairs(0, 0) | _strand_pairs(1, 1) | cross
            )
        case HBar():
            nodes = [src(0), src(1), tgt(0), tgt(1)]
            value = SplitRelation(2, 2, {(x, y) for x in nodes for y in nodes})
        case Pad(left, body, right):
            value = _pad_split(_eval_split(body, memo), left, right)
        case Comp(after, before):
            value = compose_split(
                _eval_split(before, memo), _eval_split(after, memo)
            )
        case _:
            raise TermTypeError(f"not a split-preorder generator: {t!r}")
    if memo is not None:
        memo[t] = value
    return value


def test_eval_term_agrees_with_oracle_on_generators():
    generators = {
        Category.PF: [Unit(), Counit(), Swap(), H()],
        Category.EF: [Unit(), Counit(), Swap(), HBar()],
    }
    for category, leaves in generators.items():
        for t in [Id(0), Id(1), Id(3), *leaves]:
            assert eval_term(t, category) == _eval_split(t), (category, t)
            assert eval_term(Pad(1, t, 2), category) == _eval_split(Pad(1, t, 2))


def test_eval_term_agrees_with_oracle_on_random_terms():
    for category in (Category.PF, Category.EF):
        rng = random.Random(53)
        for _ in range(500):
            t = random_term(rng, category)
            assert eval_term(t, category) == _eval_split(t), t
            strict = strict_part(eval_term(t, category))
            assert strict == strict_part(_eval_split(t)), t


def test_eval_term_agrees_with_oracle_on_catalog_instances():
    # the instances rebuild the same bridges many times over; the oracle
    # evaluates each distinct subterm once per category
    for category in (Category.PF, Category.EF):
        memo = {}
        for axiom in axiom_catalog(category):
            for params in instances(axiom, max_param=1):
                for side in instantiate(axiom, params):
                    assert eval_term(side, category) == _eval_split(side, memo), (
                        axiom.name,
                        params,
                    )


def test_neutral_terms_keep_their_reading_across_categories():
    # the same neutral terms, first in a split category and then in RB:
    # nothing from the first reading may leak into the second
    for t in (Id(2), pad(1, Id(1), 0)):
        for category in (Category.PF, Category.EF):
            split = eval_term(t, category)
            assert isinstance(split, SplitRelation)
            assert split == identity_split(2)
            rel = eval_term(t, Category.RB)
            assert isinstance(rel, BinRel)
            assert rel == BinRel(2, 2, {(0, 0), (1, 1)})
            assert equal(t, Id(2), category)
            assert equal(t, Id(2), Category.RB)


# ------------------------------------------------------------------ wide padded chains

# Each factor of these chains is the after factor of a composition with a
# padding, the shape the benchmark's `wide` workload and the parser's
# "g . f . ..." nesting produce.


def _rel_oracle(t):
    # plain pair sets, composed pair by pair
    match t:
        case Id(n):
            return BinRel(n, n, {(i, i) for i in range(n)})
        case NablaK(k):
            return BinRel(2 * k, k, {(i, i % k) for i in range(2 * k)})
        case DeltaK(k):
            return BinRel(k, 2 * k, {(i % k, i) for i in range(2 * k)})
        case Pad(left, body, right):
            inner = _rel_oracle(body)
            pairs = {(i + left, j + left) for i, j in inner.pairs}
            pairs |= {(i, i) for i in range(left)}
            pairs |= {(left + inner.n + i, left + inner.m + i) for i in range(right)}
            return BinRel(left + inner.n + right, left + inner.m + right, pairs)
        case Comp(after, before):
            r, s = _rel_oracle(before), _rel_oracle(after)
            pairs = {(i, k) for i, j in r.pairs for j2, k in s.pairs if j == j2}
            return BinRel(r.n, s.m, pairs)
    raise AssertionError(f"no oracle for {t!r}")


def _chain(factors):
    # factors in application order, nested the way the parser nests them
    term = factors[0]
    for factor in factors[1:]:
        term = Comp(factor, term)
    return term


def _regrouped(factors):
    # the same chain grouped from the other end: no after factor of the
    # outer compositions is a padding
    term = factors[-1]
    for factor in reversed(factors[:-1]):
        term = Comp(term, factor)
    return term


def _split_chain(rng, bridge, width, length):
    factors = []
    for _ in range(length):
        left = rng.randint(0, width - 2)
        gen = rng.choice([Swap(), bridge])
        factors.append(Pad(left, gen, width - 2 - left))
    at = rng.randint(1, length - 1)
    k = rng.randint(0, width - 3)
    # a padding around a composite, an identity padding, Pad(0, X, 0)
    factors[at:at] = [
        Pad(k, Comp(Pad(1, bridge, 0), Pad(0, Swap(), 1)), width - 3 - k),
        Pad(k, Id(2), width - 2 - k),
        Pad(0, factors[at], 0),
    ]
    return factors


def _rb_chain(rng, width, length):
    # folds and co-folds within 3 strands of `width`, ending at `width`
    factors, cur = [], width
    for steps_left in range(length, 0, -1):
        if abs(cur - width) >= steps_left:
            grow = cur < width
        else:
            grow = cur < width + 3 and (cur <= width - 3 or rng.random() < 0.5)
        if grow:
            left = rng.randint(0, cur - 1)
            factors.append(Pad(left, DeltaK(1), cur - 1 - left))
            cur += 1
        else:
            left = rng.randint(0, cur - 2)
            factors.append(Pad(left, NablaK(1), cur - 2 - left))
            cur -= 1
    k = rng.randint(0, width - 2)
    fold = Comp(Pad(k, NablaK(1), width - 1 - k), Pad(k, DeltaK(1), width - 1 - k))
    return factors + [
        Pad(k, Comp(NablaK(1), DeltaK(1)), width - 1 - k),
        Pad(k, Id(2), width - 2 - k),
        Pad(0, fold, 0),
    ]


@pytest.mark.parametrize("width", [16, 32])
def test_wide_padded_chains_agree_with_oracles(width):
    rng = random.Random(59 + width)
    for category, bridge in ((Category.PF, H()), (Category.EF, HBar())):
        memo = {}
        for _ in range(2):
            factors = _split_chain(rng, bridge, width, 12)
            t = _chain(factors)
            value = _eval_split(t, memo)
            assert eval_term(t, category) == value, factors
            assert equal(t, _regrouped(factors), category)
            other = _chain(_split_chain(rng, bridge, width, 12))
            assert equal(t, other, category) == (value == _eval_split(other, memo))
    for _ in range(3):
        factors = _rb_chain(rng, width, 16)
        t, u = _chain(factors), _chain(_rb_chain(rng, width, 16))
        assert eval_term(t, Category.RB) == _rel_oracle(t), t
        assert equal(t, _regrouped(factors), Category.RB)
        assert equal(t, u, Category.RB) == (_rel_oracle(t) == _rel_oracle(u))


@pytest.mark.parametrize(
    "bad",
    [
        Comp(Pad(1, H(), 0), Id(2)),
        Comp(Pad(0, Swap(), 2), Comp(Pad(1, HBar(), 0), Id(3))),
        Comp(Pad(2, NablaK(1), 1), Pad(1, DeltaK(1), 0)),
    ],
)
def test_ill_typed_composition_with_a_padding_raises_as_type_of(bad):
    with pytest.raises(TermTypeError) as typed:
        type_of(bad)
    with pytest.raises(TermTypeError) as evaluated:
        eval_term(bad)
    assert str(evaluated.value) == str(typed.value)
    with pytest.raises(TermTypeError) as compared:
        equal(bad, bad)
    assert str(compared.value) == str(typed.value)
