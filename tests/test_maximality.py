"""Separation witnesses: examples, sharpness, and totality."""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitrel.dsl import parse
from splitrel.fuzz import random_term_pair
from splitrel.maximality import (
    SeparationWitness,
    separate,
    separate_ef,
    separate_pf,
    separate_rb,
)
from splitrel.normalform import IotaNF, iota_nf_term
from splitrel.relations import BinRel, SplitRelation, src, tgt
from splitrel.semantics import equal, eval_term
from splitrel.terms import (
    Category,
    Comp,
    Counit,
    HBar,
    Id,
    TermTypeError,
    Unit,
    compose_chain,
    down_pf,
    iota_term,
    type_of,
    union_term,
    up_pf,
    zero_term,
)

ID_ON_1 = BinRel(1, 1, frozenset({(0, 0)}))
EMPTY_ON_1 = BinRel(1, 1, frozenset())

LOOPS_1_1 = frozenset({(src(0), src(0)), (tgt(0), tgt(0))})
DOWN_PAIR = frozenset({(src(0), tgt(0))})
UP_PAIR = frozenset({(tgt(0), src(0))})
CROSS_FAMILY = {
    SplitRelation(1, 1, LOOPS_1_1),
    SplitRelation(1, 1, LOOPS_1_1 | DOWN_PAIR),
    SplitRelation(1, 1, LOOPS_1_1 | UP_PAIR),
    SplitRelation(1, 1, LOOPS_1_1 | DOWN_PAIR | UP_PAIR),
}


def test_rb_pair_already_small():
    witness = separate_rb(iota_term(0, 0, 1, 1), zero_term(1, 1, Category.RB))
    assert witness.pivot == (0, 0)
    assert witness.results == (ID_ON_1, EMPTY_ON_1)


def test_rb_union_against_identity():
    v = Id(2)
    w = union_term(Id(2), iota_term(0, 1, 2, 2))
    witness = separate_rb(v, w)
    assert witness.pivot == (0, 1)
    assert witness.results == (EMPTY_ON_1, ID_ON_1)


def test_rb_sharpness_on_random_pairs():
    rng = random.Random(416)
    separated = 0
    while separated < 120:
        v, w = random_term_pair(rng, Category.RB, max_depth=4)
        if equal(v, w, Category.RB):
            continue
        witness = separate_rb(v, w)
        assert set(witness.results) == {ID_ON_1, EMPTY_ON_1}
        assert witness.pivot in (
            eval_term(v, Category.RB).pairs ^ eval_term(w, Category.RB).pairs
        )
        separated += 1


def test_pf_down_against_identity():
    witness = separate_pf(down_pf(), Id(1))
    assert witness.pivot == (tgt(0), src(0))
    assert witness.results == (
        SplitRelation(1, 1, LOOPS_1_1 | DOWN_PAIR),
        SplitRelation(1, 1, LOOPS_1_1 | DOWN_PAIR | UP_PAIR),
    )


def test_pf_down_against_up():
    witness = separate_pf(down_pf(), up_pf())
    assert witness.pivot == (src(0), tgt(0))
    assert witness.results == (
        SplitRelation(1, 1, LOOPS_1_1 | DOWN_PAIR),
        SplitRelation(1, 1, LOOPS_1_1 | UP_PAIR),
    )


def test_pf_random_pairs_land_in_the_small_family():
    rng = random.Random(417)
    separated = 0
    while separated < 120:
        v, w = random_term_pair(rng, Category.PF, max_depth=4)
        if equal(v, w, Category.PF):
            continue
        witness = separate_pf(v, w)
        first, second = witness.results
        assert first != second
        x, y = witness.pivot
        if x.tag != y.tag:
            assert first in CROSS_FAMILY and second in CROSS_FAMILY
        else:
            shape = (2, 0) if x.tag == "s" else (0, 2)
            assert (first.n, first.m) == shape
            assert first.is_preorder() and second.is_preorder()
        separated += 1


def test_ef_glue_against_identity():
    witness = separate_ef(HBar(), Id(2))
    assert witness.pivot == (src(0), src(1))
    merged, discrete = witness.results
    assert (merged.n, merged.m) == (2, 0)
    assert (src(0), src(1)) in merged.pairs
    assert discrete.pairs == frozenset(
        {(src(0), src(0)), (src(1), src(1))}
    )


def test_ef_cross_pivot_gives_one_to_one_results():
    witness = separate_ef(Id(1), Comp(Unit(), Counit()))
    assert witness.pivot == (src(0), tgt(0))
    assert witness.results == (
        SplitRelation(1, 1, LOOPS_1_1 | DOWN_PAIR | UP_PAIR),
        SplitRelation(1, 1, LOOPS_1_1),
    )


def test_ef_random_pairs_yield_differing_equivalences():
    rng = random.Random(418)
    separated = 0
    while separated < 120:
        v, w = random_term_pair(rng, Category.EF, max_depth=4)
        if equal(v, w, Category.EF):
            continue
        witness = separate_ef(v, w)
        first, second = witness.results
        assert first != second
        assert first.is_equivalence() and second.is_equivalence()
        separated += 1


def test_separate_dispatches_by_category():
    witness = separate(down_pf(), Id(1), Category.PF)
    assert witness.category is Category.PF
    witness = separate(iota_term(0, 0, 1, 1), zero_term(1, 1, Category.RB),
                       Category.RB)
    assert witness.category is Category.RB


def test_equal_terms_are_rejected():
    with pytest.raises(ValueError):
        separate_pf(Id(1), Id(1))
    with pytest.raises(ValueError):
        separate_ef(HBar(), Comp(HBar(), HBar()))
    with pytest.raises(ValueError):
        separate_rb(zero_term(1, 1, Category.RB), zero_term(1, 1, Category.RB))


def test_type_mismatch_is_rejected():
    with pytest.raises(TermTypeError):
        separate_rb(Id(1), Id(2))


def test_witness_serialization_round_trips():
    witness = separate_pf(down_pf(), Id(1))
    obj = json.loads(witness.to_json())
    assert obj["category"] == "PF"
    assert obj["pivot"] == [["t", 0], ["s", 0]]
    pre = parse(obj["pre"], Category.PF)
    post = parse(obj["post"], Category.PF)
    for term, expected in zip((down_pf(), Id(1)), witness.results):
        composite = compose_chain([pre, term, post], type_of(pre).src)
        assert eval_term(composite, Category.PF) == expected
    assert witness.context == (witness.pre, witness.post)


def test_witness_json_for_relations_uses_plain_pairs():
    witness = separate_rb(iota_term(0, 0, 1, 1), zero_term(1, 1, Category.RB))
    obj = witness.to_json_obj()
    assert obj["pivot"] == [0, 0]
    assert obj["results"][0] == {"n": 1, "m": 1, "pairs": [[0, 0]]}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_rb_mask_pairs_always_separate_sharply(mask_a, mask_b):
    assume(mask_a != mask_b)
    cells = [(i, j) for i in range(2) for j in range(2)]
    v = iota_nf_term(IotaNF(2, 2, tuple(
        c for k, c in enumerate(cells) if mask_a >> k & 1
    )))
    w = iota_nf_term(IotaNF(2, 2, tuple(
        c for k, c in enumerate(cells) if mask_b >> k & 1
    )))
    witness = separate_rb(v, w)
    assert set(witness.results) == {ID_ON_1, EMPTY_ON_1}


@pytest.mark.parametrize("separator", [separate_pf, separate_ef, separate_rb])
def test_rejection_messages_are_pinned(separator):
    with pytest.raises(
        TermTypeError,
        match=r"^cannot separate terms of different types 1->1 and 2->2$",
    ):
        separator(Id(1), Id(2))
    with pytest.raises(
        ValueError, match=r"^the terms are equal; there is nothing to separate$"
    ):
        separator(Id(1), Id(1))
