"""Normal-form payloads and separation pivots read from evaluator rows,
checked against the pair-set derivation they replace."""

import random

import pytest

from splitrel.dsl import parse, print_term
from splitrel.fuzz import random_term_pair
from splitrel.maximality import separate
from splitrel.normalform import NORMAL_FORMS
from splitrel.relations import SRC
from splitrel.semantics import equal, eval_term
from splitrel.terms import Category, compose_chain, type_of

DRAWS = 300


def _flatten_strict(value):
    n = value.n

    def flat(node):
        return node.pos if node.tag == SRC else n + node.pos

    return tuple(sorted((flat(x), flat(y)) for x, y in value.pairs if x != y))


def _reference_payload(t, category):
    value = eval_term(t, category)
    if category is Category.RB:
        return value.n, value.m, tuple(sorted(value.pairs))
    strict = _flatten_strict(value)
    if category is Category.EF:
        strict = tuple(sorted({(min(i, j), max(i, j)) for i, j in strict}))
    return value.n, value.m, strict


def _draws(category, seed):
    rng = random.Random(seed)
    return [random_term_pair(rng, category) for _ in range(DRAWS)]


@pytest.mark.parametrize("category", list(Category))
def test_payloads_match_the_pair_set_derivation(category):
    _, to_nf, _ = NORMAL_FORMS[category]
    for f, g in _draws(category, 9100 + list(Category).index(category)):
        for t in (f, g):
            nf = to_nf(t)
            pairs = nf.pairs if category is Category.RB else nf.etas
            assert (nf.n, nf.m, pairs) == _reference_payload(t, category)


@pytest.mark.parametrize("category", list(Category))
def test_pivots_and_results_match_the_pair_set_derivation(category):
    separated = 0
    for v, w in _draws(category, 9200 + list(Category).index(category)):
        if equal(v, w, category):
            continue
        witness = separate(v, w, category)
        gv, gw = eval_term(v, category), eval_term(w, category)
        assert witness.pivot == min(gv.pairs ^ gw.pairs)
        pre = parse(print_term(witness.pre), category)
        post = parse(print_term(witness.post), category)
        width = type_of(pre).src
        expected = tuple(
            eval_term(compose_chain([pre, t, post], width), category)
            for t in (v, w)
        )
        assert witness.results == expected
        assert expected[0] != expected[1]
        separated += 1
    assert separated > DRAWS // 2
