"""Soundness and rewriting behaviour of the named axiom catalog."""

import importlib.util
import json
from pathlib import Path

import pytest

from splitrel.catalog import (
    apply_axiom,
    axiom_catalog,
    axiom_named,
    catalog_json,
    check_axiom,
    instances,
    instantiate,
)
from splitrel import catalog, dsl, terms
from splitrel.dsl import parse, print_term
from splitrel.semantics import equal
from splitrel.terms import Category, Comp, H, HBar, Id, TermTypeError, pad

ALL_AXIOMS = [
    (category, axiom)
    for category in Category
    for axiom in axiom_catalog(category)
]


@pytest.mark.parametrize(
    "category, axiom",
    ALL_AXIOMS,
    ids=[f"{c.name}-{a.name}" for c, a in ALL_AXIOMS],
)
def test_axiom_is_sound(category, axiom):
    checked, failing = check_axiom(axiom, max_param=3)
    assert checked > 0
    assert failing == []


def test_catalogs_have_unique_names():
    for category in Category:
        names = [axiom.name for axiom in axiom_catalog(category)]
        assert len(names) == len(set(names))


def test_axiom_named_lookup():
    axiom = axiom_named("tau-tau", Category.PF)
    assert axiom.name == "tau-tau"
    assert axiom.category is Category.PF
    with pytest.raises(ValueError):
        axiom_named("no-such-equation", Category.PF)
    with pytest.raises(ValueError):
        axiom_named("h-idemp", Category.RB)


def test_instantiate_validates_arity():
    axiom = axiom_named("tau-tau", Category.PF)
    with pytest.raises(ValueError):
        instantiate(axiom, (1,))
    with pytest.raises(ValueError):
        instantiate(axiom, (1, 0, 0))
    with pytest.raises(ValueError):
        instantiate(axiom, (-1, 0))


def test_instantiate_rejects_inadmissible_parameters():
    axiom = axiom_named("eta-unit", Category.PF)
    # fresh strand at 0 cannot lie strictly between the endpoints
    with pytest.raises(ValueError):
        instantiate(axiom, (0, 1, 0, 2))
    axiom = axiom_named("one-def", Category.RB)
    with pytest.raises(ValueError):
        instantiate(axiom, (0, 0))


def test_instances_respect_padding_bound():
    axiom = axiom_named("tau-tau", Category.PF)
    assert sorted(instances(axiom, max_param=1)) == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def test_apply_collapses_a_bonded_pair():
    t = parse("counit . unit", Category.PF)
    axiom = axiom_named("zero-zero", Category.PF)
    assert apply_axiom(t, axiom, (0, 0)) == Id(0)


def test_apply_matches_a_padded_instance():
    t = parse("pad(1, swap . swap, 0)")
    axiom = axiom_named("tau-tau", Category.PF)
    assert apply_axiom(t, axiom, (1, 0)) == Id(3)


def test_apply_at_a_deeper_position():
    inner = parse("pad(1, swap . swap, 0)")
    t = Comp(pad(0, H(), 1), inner)
    axiom = axiom_named("tau-tau", Category.PF)
    rewritten = apply_axiom(t, axiom, (1, 0), position=(1,))
    assert rewritten == Comp(pad(0, H(), 1), Id(3))


def test_apply_right_to_left():
    axiom = axiom_named("tau-tau", Category.PF)
    expanded = apply_axiom(Id(3), axiom, (1, 0), direction="rl")
    assert expanded == parse("pad(1, swap . swap, 0)")
    assert equal(expanded, Id(3), Category.PF)


def test_apply_rejects_a_mismatch():
    axiom = axiom_named("tau-tau", Category.PF)
    with pytest.raises(ValueError):
        apply_axiom(Id(2), axiom, (0, 0))


def test_apply_rejects_bad_positions():
    axiom = axiom_named("zero-zero", Category.PF)
    t = parse("counit . unit", Category.PF)
    with pytest.raises(ValueError):
        apply_axiom(t, axiom, (0, 0), position=(2,))
    with pytest.raises(ValueError):
        apply_axiom(t, axiom, (0, 0), position=(1, 0))


def test_apply_rejects_bad_direction():
    axiom = axiom_named("tau-tau", Category.PF)
    with pytest.raises(ValueError):
        apply_axiom(Id(2), axiom, (0, 0), direction="sideways")


def test_apply_rejects_a_foreign_category():
    axiom = axiom_named("tau-tau", Category.PF)
    with pytest.raises(TermTypeError):
        apply_axiom(Comp(HBar(), HBar()), axiom, (0, 0), position=(0,))


@pytest.mark.parametrize("category", list(Category), ids=lambda c: c.name)
def test_catalog_json_round_trips(category):
    entries = catalog_json(category)
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    decoded = json.loads(json.dumps(entries))
    assert decoded == entries
    for entry in entries:
        assert entry["category"] == category.name
        lhs = parse(entry["lhs"], category)
        rhs = parse(entry["rhs"], category)
        assert equal(lhs, rhs, category)


def _pin_catalog():
    # perfbench is not a package: load its pinning script by path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "pin_catalog.py"
    spec = importlib.util.spec_from_file_location("pin_catalog", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instances_match_the_pinned_digests():
    pin_catalog = _pin_catalog()
    pins = json.loads(pin_catalog.PINS.read_text())
    assert pins["max_param"] == 3
    computed = {}
    for category in Category:
        for axiom in axiom_catalog(category):
            digests = []
            for params in instances(axiom, pins["max_param"]):
                lhs, rhs = instantiate(axiom, params)
                text = pin_catalog.digest(params, print_term(lhs), print_term(rhs))
                digests.append(text)
            computed[f"{category.name} {axiom.name}"] = "".join(sorted(digests))
    assert computed.keys() == pins["axioms"].keys()
    changed = [name for name in computed if computed[name] != pins["axioms"][name]]
    assert changed == []


def test_checking_an_instance_resolves_no_signature(count_calls):
    sides = [
        (category, instantiate(axiom, params))
        for category in Category
        for axiom in axiom_catalog(category)
        for params in instances(axiom, max_param=1)
    ]
    forced = count_calls(terms, "forced_category")
    assert all(equal(lhs, rhs, category) for category, (lhs, rhs) in sides)
    assert forced == []
    # without a category the sides are still resolved
    category, (lhs, rhs) = sides[0]
    assert equal(lhs, rhs)
    assert forced == [(lhs,), (rhs,)]


PINNED_NAMES = {
    Category.PF: [
        "cat-1-left", "cat-1-right", "fl",
        "tau-tau", "tau-yb", "tau-unit", "tau-counit", "zero-zero",
        "h-idemp", "h-yb", "h-com-left", "h-com-right", "h-bond", "h-bond-alt",
        "hh", "hh-in", "hh-out", "h-two-zero", "h-zero-two", "h-two-two",
        "nabla-assoc", "nabla-unit-left", "nabla-unit-right", "delta-assoc",
        "delta-counit-left", "delta-counit-right", "frobenius-left",
        "frobenius-right", "nabla-tau", "tau-delta", "nabla-swap", "delta-swap",
        "separability",
        "down-idemp", "down-tau", "up-alt", "up-down", "down-two-zero",
        "down-zero-two", "down-two-two", "down-separability", "down-two-one",
        "down-one-two", "down-zero-one", "down-one-zero", "nabla-circ",
        "h-via-nabla", "h-def", "h-tr",
        "tau-def", "eta-unit", "eta-counit", "eta-idemp", "eta-perm", "eta-kl",
        "eta-k-zero", "eta-zero-l", "eta-tr", "natural-id",
    ],
    Category.EF: [
        "cat-1-left", "cat-1-right", "fl",
        "tau-tau", "tau-yb", "tau-unit", "tau-counit", "zero-zero",
        "hbar-idemp", "hbar-yb", "hbar-com-left", "hbar-com-right", "hbar-bond",
        "hbar-bond-alt", "hbar-hbar", "nabla-consistency", "delta-consistency",
        "hbar-def", "hbar-eta", "etabar-sym",
        "nabla-assoc", "nabla-unit-left", "nabla-unit-right", "delta-assoc",
        "delta-counit-left", "delta-counit-right", "frobenius-left",
        "frobenius-right", "nabla-tau", "tau-delta", "nabla-swap", "delta-swap",
        "separability",
        "tau-def", "eta-unit", "eta-counit", "eta-idemp", "eta-perm", "eta-kl",
        "eta-k-zero", "eta-zero-l", "eta-tr", "natural-id",
    ],
    Category.RB: [
        "cat-1-left", "cat-1-right", "fl",
        "nabla-nat", "delta-nat", "unit-nat", "counit-nat",
        "nabla-unit-1", "nabla-unit-2", "nabla-unit-12",
        "delta-counit-1", "delta-counit-2", "delta-counit-12",
        "unit-zero", "counit-zero", "nabla-zero", "delta-zero", "nabla-delta",
        "tau-dual", "tau-acute-nat", "tau-grave-nat", "nabla-step", "delta-step",
        "nabla-slide", "union-assoc", "union-comm", "union-idem", "union-zero",
        "comp-union-left", "comp-union-right", "comp-zero-left",
        "comp-zero-right", "pad-union-left", "pad-union-right", "plus-union",
        "nabla-union", "delta-union", "nabla-def", "delta-def", "unit-def",
        "counit-def", "one-def", "iota-comp", "iota-zero-left",
        "iota-zero-right",
    ],
}


@pytest.mark.parametrize("category", list(Category), ids=lambda c: c.name)
def test_axiom_names_keep_their_order(category):
    assert [axiom.name for axiom in axiom_catalog(category)] == PINNED_NAMES[category]


def test_table_sides_are_parsed_once_on_first_use(count_calls):
    parsed = count_calls(dsl, "parse")
    fresh = catalog._pf_axioms() + catalog._ef_axioms() + catalog._rb_axioms()
    for category in Category:
        for axiom in axiom_catalog(category):
            assert list(instances(axiom, max_param=3))
    assert parsed == []
    frobenius = next(axiom for axiom in fresh if axiom.name == "frobenius-left")
    first = instantiate(frobenius, (0, 0))
    assert instantiate(frobenius, (1, 2)) == (pad(1, first[0], 2), pad(1, first[1], 2))
    assert len(parsed) == 2
