"""Parser and printer tests: grammar, categories, desugaring, round-trips."""
import random
import sys

import pytest

from splitrel import dsl, terms
from splitrel.dsl import ParseError, parse, parse_with_category, print_term
from splitrel.fuzz import random_term
from splitrel.semantics import equal, resolve_category
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
    TermType,
    TermTypeError,
    Unit,
    UnitK,
    eta_term,
    hbar_in_pf,
    iota_term,
    pad,
    plus,
    tau_rb,
    type_of,
    union_term,
    zero_term,
)


# ------------------------------------------------------------------ basics


def test_parse_composition():
    assert parse("counit . unit") == Comp(Counit(), Unit())
    assert type_of(parse("counit . unit")) == TermType(0, 0)


def test_parse_padded_generators():
    t = parse("pad(1, h, 0) . pad(0, h, 1)")
    assert t == Comp(Pad(1, H(), 0), Pad(0, H(), 1))
    assert type_of(t) == TermType(3, 3)


def test_parse_relational_example():
    term, cat = parse_with_category("union(iota(0,0;3,2), zero(3,2))")
    assert cat is Category.RB
    assert type_of(term) == TermType(3, 2)
    assert term == union_term(
        iota_term(0, 0, 3, 2), zero_term(3, 2, Category.RB)
    )


def test_parse_right_nests_chains():
    assert parse("h . swap . h") == Comp(H(), Comp(Swap(), H()))


def test_parse_parens_group():
    assert parse("(h . swap) . h") == Comp(Comp(H(), Swap()), H())
    assert parse("((h))") == H()


def test_parse_whitespace_insensitive():
    assert parse("pad( 1 ,h,  0 )") == Pad(1, H(), 0)
    assert parse("counit\n.\nunit") == Comp(Counit(), Unit())


def test_parse_plus_and_pad_normalize():
    assert parse("pad(1, pad(2, swap, 0), 3)") == Pad(3, Swap(), 3)
    assert parse("pad(1, id(2), 0)") == Id(3)
    assert parse("plus(unit, counit)") == Comp(Pad(1, Counit(), 0), Pad(0, Unit(), 1))


def test_parse_eta_sugar():
    assert parse("eta(0,1,2)") == H()
    assert parse("eta(1,0,2)") == eta_term(1, 0, 2)


# ------------------------------------------------------------------ categories


def test_category_inference():
    assert parse_with_category("h")[1] is Category.PF
    assert parse_with_category("hbar")[1] is Category.EF
    assert parse_with_category("nabla(2)")[1] is Category.RB
    assert parse_with_category("swap")[1] is Category.PF
    assert parse_with_category("etabar(0,1,2)")[1] is Category.EF


def test_header_sets_category():
    term, cat = parse_with_category("%category EF\nswap")
    assert cat is Category.EF
    assert term == Swap()


def test_flag_overrides_header():
    term, cat = parse_with_category("%category EF\nswap", "PF")
    assert cat is Category.PF
    term, cat = parse_with_category("%category EF\nswap", Category.RB)
    assert cat is Category.RB
    assert term == tau_rb()


def test_hbar_desugars_in_pf():
    assert parse("hbar", "PF") == hbar_in_pf()
    assert parse("hbar") == HBar()
    # h forces PF, so a neighboring hbar expands through it
    term, cat = parse_with_category("hbar . h")
    assert cat is Category.PF
    assert term == Comp(hbar_in_pf(), H())


def test_etabar_desugars_in_pf():
    term = parse("etabar(0,1,2)", "PF")
    assert term == Comp(eta_term(0, 1, 2), eta_term(1, 0, 2))


def test_rb_reinterprets_shared_atoms():
    assert parse("unit", "RB") == UnitK(1)
    assert parse("counit", "RB") == CounitK(1)
    assert parse("swap", "RB") == tau_rb()
    assert parse("zero(3,2)", "RB") == zero_term(3, 2, Category.RB)
    assert parse("zero(3,2)") == zero_term(3, 2, Category.PF)


def test_category_restrictions():
    with pytest.raises(ParseError):
        parse("h", "EF")
    with pytest.raises(ParseError):
        parse("h", "RB")
    with pytest.raises(ParseError):
        parse("hbar", "RB")
    with pytest.raises(ParseError):
        parse("eta(0,1,2)", "EF")
    with pytest.raises(ParseError):
        parse("nabla(1)", "PF")
    with pytest.raises(ParseError):
        parse("iota(0,0;1,1)", "EF")
    with pytest.raises(ParseError):
        parse("union(id(1), id(1))", "PF")


def test_mixed_generators_rejected():
    with pytest.raises(ParseError):
        parse("union(h . h, zero(2,2))")
    with pytest.raises(ParseError):
        parse("nabla(1) . etabar(0,1,2)")


def test_unknown_category_flag():
    with pytest.raises(ParseError):
        parse("h", "XY")


# ------------------------------------------------------------------ errors


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("pad(1, h 0)")
    assert "line 1" in str(exc.value)
    assert exc.value.line == 1


def test_error_cases():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("id(")
    with pytest.raises(ParseError):
        parse(")")
    with pytest.raises(ParseError):
        parse("h h")
    with pytest.raises(ParseError):
        parse("foo")
    with pytest.raises(ParseError):
        parse("H")
    with pytest.raises(ParseError):
        parse("h .")


def test_directive_errors():
    with pytest.raises(ParseError):
        parse("%cat PF\nh")
    with pytest.raises(ParseError):
        parse("h\n%category PF")
    with pytest.raises(ParseError):
        parse("%category PF\n%category PF\nh")


def test_type_errors_pass_through():
    with pytest.raises(TermTypeError):
        parse("unit . unit")
    with pytest.raises(TermTypeError):
        parse("union(unitk(1), unitk(2))")


def test_union_type_errors_are_pinned():
    with pytest.raises(TermTypeError) as exc:
        parse("union(unitk(1), unitk(2))")
    assert str(exc.value) == "union needs parallel arrows, got 0->1 and 0->2"
    # an ill-typed argument reports its own junction first
    with pytest.raises(TermTypeError) as exc:
        parse("union(unitk(1) . unitk(2), unitk(2))")
    assert str(exc.value) == "cannot compose 0->2 with 0->1: 2 != 0"


def test_parsing_a_union_types_nothing_again(count_calls):
    typed = count_calls(terms, "type_of")
    kinds = count_calls(terms, "_generator_kinds")
    term = parse("union(iota(0,1;3,3), union(iota(1,1;3,3), iota(2,0;3,3)))")
    assert (len(typed), len(kinds)) == (0, 0)
    assert term == union_term(
        iota_term(0, 1, 3, 3),
        union_term(iota_term(1, 1, 3, 3), iota_term(2, 0, 3, 3)),
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("plus(h . unit, h)", "cannot compose 0->1 with 2->2: 1 != 2"),
        ("plus(h, counit . h)", "cannot compose 2->2 with 1->0: 2 != 1"),
        # with both arguments ill-typed, the first one reports
        ("plus(h . unit, counit . h)", "cannot compose 0->1 with 2->2: 1 != 2"),
        # a mismatch outside the sum is reported for the whole text
        ("h . plus(h, h)", "cannot compose 4->4 with 2->2: 4 != 2"),
        ("(h . unit) . plus(swap, counit)", "cannot compose 0->1 with 2->2: 1 != 2"),
        ("plus(unitk(1) . unitk(2), unit)", "cannot compose 0->2 with 0->1: 2 != 0"),
    ],
)
def test_plus_type_errors_are_pinned(text, message):
    with pytest.raises(TermTypeError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_parsing_a_plus_types_nothing_again(count_calls):
    typed = count_calls(terms, "type_of")
    kinds = count_calls(terms, "_generator_kinds")
    term = parse("plus(plus(pad(1, h, 0) . pad(0, h, 1), swap), plus(h . swap, h))")
    assert (len(typed), len(kinds)) == (0, 0)
    assert term == plus(
        plus(Comp(pad(1, H(), 0), pad(0, H(), 1)), Swap()),
        plus(Comp(H(), Swap()), H()),
    )


def test_builder_errors_become_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse("iota(3,0;3,2)")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse("eta(0,0,3)")
    with pytest.raises(ParseError):
        parse("eta(0,5,3)")


def test_error_position_on_later_line():
    with pytest.raises(ParseError) as exc:
        parse("pad(1,\n  h,\n  x)")
    assert exc.value.line == 3


# text, category, exact message, line, column
PARSE_ERRORS = [
    ("h $", None, "unexpected character '$' (line 1, column 3)", 1, 3),
    ("h\n  . @", None, "unexpected character '@' (line 2, column 5)", 2, 5),
    ("foo(1)", None, "unknown atom 'foo' (line 1, column 1)", 1, 1),
    ("id 1", None, "expected '(', found '1' (line 1, column 4)", 1, 4),
    ("eta(0 1, 2)", None, "expected ',', found '1' (line 1, column 7)", 1, 7),
    ("iota(0,0,1,1)", None, "expected ';', found ',' (line 1, column 9)", 1, 9),
    ("id(1", None,
     "expected ')', found 'end of input' (line 1, column 5)", 1, 5),
    ("h .", None,
     "expected a term, found 'end of input' (line 1, column 4)", 1, 4),
    ("", None, "empty input", None, None),
    ("pad(1, h 0)", None, "expected ',', found '0' (line 1, column 10)", 1, 10),
    ("h h", None, "unexpected trailing input 'h' (line 1, column 3)", 1, 3),
    ("%category EF\nh", None,
     "'h' is not a EF generator (line 2, column 1)", 2, 1),
    ("%category RB\nswap . eta(0,1,2)", None,
     "'eta' is not a RB generator (line 2, column 8)", 2, 8),
    ("nabla(1)", "PF", "'nabla' is not a PF generator (line 1, column 1)", 1, 1),
    ("hbar", "RB", "'hbar' is not a RB generator (line 1, column 1)", 1, 1),
    ("union(h . h, zero(2,2))", None,
     "'h' cannot appear in a relational term (line 1, column 7)", 1, 7),
    ("nabla(1) . hbar", None,
     "'hbar' cannot appear in a relational term (line 1, column 12)", 1, 12),
    ("iota(3,0;3,2)", None,
     "pair (3,0) out of bounds for 3->2 (line 1, column 1)", 1, 1),
    ("pad(1,\n  h,\n  x)", None,
     "expected a number, found 'x' (line 3, column 3)", 3, 3),
    ("h\n%category PF", None,
     "header directive after term text (line 2, column 1)", 2, 1),
    ("h", "XY", "unknown category 'XY'", None, None),
]


@pytest.mark.parametrize("text, category, message, line, col", PARSE_ERRORS)
def test_parse_error_messages_are_pinned(text, category, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text, category)
    assert (str(exc.value), exc.value.line, exc.value.col) == (message, line, col)


def test_a_bound_word_reads_as_its_arrow_ahead_of_an_atom():
    arrow = terms.iota_term(0, 1, 2, 2)
    bound = {"h": (arrow, TermType(2, 2))}
    text = "union(h, zero(2, 2)) . h"
    words = dsl._tokenize(text)
    term, term_type = dsl._parse_scanned(text, words, Category.RB, bound)
    zero = terms.zero_term(2, 2, Category.RB)
    assert term == Comp(terms.union_term(arrow, zero), arrow)
    assert term_type == TermType(2, 2)
    # unbound, `h` is the PF atom, and any other word keeps its error
    with pytest.raises(ParseError) as exc:
        dsl._parse_scanned(text, words, Category.RB)
    assert str(exc.value) == "'h' is not a RB generator (line 1, column 7)"
    with pytest.raises(ParseError) as exc:
        dsl._parse_scanned("h . g", dsl._tokenize("h . g"), Category.RB, bound)
    assert str(exc.value) == "unknown atom 'g' (line 1, column 5)"


# text, exact message of the `TermTypeError`
TYPE_ERRORS = [
    ("unit . unit", "cannot compose 0->1 with 0->1: 1 != 0"),
    ("h . pad(1, unit . unit, 0)", "cannot compose 1->2 with 1->2: 2 != 1"),
    ("h . (counit . counit) . h", "cannot compose 1->0 with 1->0: 0 != 1"),
    # `type_of` checks the right-hand junction of a chain first
    ("unit . unit . counit . counit", "cannot compose 1->0 with 1->0: 0 != 1"),
    ("counit . h . unit . unit", "cannot compose 0->1 with 0->1: 1 != 0"),
    ("pad(0, unit, 1) . swap", "cannot compose 2->2 with 1->2: 2 != 1"),
]


@pytest.mark.parametrize("text, message", TYPE_ERRORS)
def test_type_error_messages_are_pinned(text, message):
    with pytest.raises(TermTypeError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_a_syntax_error_wins_over_an_earlier_type_error():
    with pytest.raises(ParseError) as exc:
        parse("unit . unit h")
    assert str(exc.value) == "unexpected trailing input 'h' (line 1, column 13)"
    with pytest.raises(ParseError) as exc:
        parse("pad(1, unit . unit, 0) . (h")
    assert str(exc.value) == (
        "expected ')', found 'end of input' (line 1, column 28)"
    )


def test_deep_chain_parses_without_recursion():
    chain = " . ".join(["h"] * 5000)
    term = parse(chain)
    factors = 1
    while isinstance(term, Comp):
        assert term.after == H()
        term, factors = term.before, factors + 1
    assert (term, factors) == (H(), 5000)
    terms, types, category = dsl._parse_joined([chain], None)
    assert (types, category) == ([TermType(2, 2)], Category.PF)


def test_parse_types_agree_with_type_of():
    rng = random.Random(5)
    for category in Category:
        texts = [print_term(random_term(rng, category)) for _ in range(100)]
        terms, types, _ = dsl._parse_joined(texts, category)
        assert types == [type_of(t) for t in terms]


def _atom_text(name: str) -> str:
    # a 3 -> 2 body using every shared atom, so RB reinterprets them, and
    # with different widths on its two sides, so a typing that mixes them
    # up shows
    body = "swap . pad(1, unit . counit, 0) . pad(0, counit, 2)"
    shape = dsl._ATOMS[name][0]
    if not shape:
        return name
    args = {"n": "2", "T,T": f"{body}, {body}", "n,t,n": f"1, {body}, 0",
            "n,n": "1, 2", "n,n,n": "0, 1, 2", "n,n;n,n": "0, 1; 2, 2"}
    if name == "plus":
        return f"plus({body}, counit)"
    return f"{name}({args[shape]})"


@pytest.mark.parametrize("name", sorted(dsl._ATOMS))
def test_each_parsed_atom_has_its_type_and_signature(name):
    # The command line takes a term's type from the parse, and evaluates
    # the term in the command's signature with no `resolve_category`;
    # `type_of` and `resolve_category` are the references for both.
    text = _atom_text(name)
    parsed_in = []
    for category in Category:
        try:
            (term,), types, _ = dsl._parse_joined([text], category)
        except ParseError:
            continue
        parsed_in.append(category)
        assert types == [type_of(term)]
        assert resolve_category(term, category=category) is category
    assert parsed_in, text
    term, pinned = parse_with_category(text)
    assert resolve_category(term, category=pinned) is pinned


def test_parsed_random_terms_are_in_the_signature_they_parse_in():
    rng = random.Random(17)
    for category in Category:
        for _ in range(300):
            text = print_term(random_term(rng, category))
            term = parse(text, category)
            assert resolve_category(term, category=category) is category, text
            term, pinned = parse_with_category(text)
            assert resolve_category(term, category=pinned) is pinned, text


# ------------------------------------------------------------------ printing


def test_print_atoms():
    assert print_term(Id(3)) == "id(3)"
    assert print_term(Unit()) == "unit"
    assert print_term(Counit()) == "counit"
    assert print_term(Swap()) == "swap"
    assert print_term(H()) == "h"
    assert print_term(HBar()) == "hbar"
    assert print_term(NablaK(2)) == "nabla(2)"
    assert print_term(DeltaK(1)) == "delta(1)"
    assert print_term(UnitK(3)) == "unitk(3)"
    assert print_term(CounitK(1)) == "counitk(1)"


def test_print_composition():
    assert print_term(Comp(Counit(), Unit())) == "counit . unit"
    assert print_term(Comp(H(), Comp(Swap(), H()))) == "h . swap . h"
    assert print_term(Comp(Comp(H(), Swap()), H())) == "(h . swap) . h"


def test_print_pad():
    assert print_term(Pad(1, H(), 0)) == "pad(1, h, 0)"
    assert print_term(Pad(0, Comp(H(), Swap()), 2)) == "pad(0, h . swap, 2)"


def test_print_walks_a_long_before_chain_without_recursing():
    depth = 5000
    assert depth > sys.getrecursionlimit()
    factors = [Swap() if k % 2 else H() for k in range(depth)]
    t = H()
    for factor in factors:  # each factor nests the chain so far as its before
        t = Comp(factor, t)
    text = print_term(t)
    assert text == " . ".join(print_term(f) for f in [*reversed(factors), H()])
    assert equal(parse(text, Category.PF), t, Category.PF)


def test_print_parse_round_trip_examples():
    for text in [
        "counit . unit",
        "pad(1, h, 0) . pad(0, h, 1)",
        "(h . swap) . h . (swap . h)",
        "pad(1, counitk(1), 0) . delta(1) . nabla(1)",
    ]:
        term = parse(text)
        assert parse(print_term(term)) == term


def test_round_trip_random_terms():
    rng = random.Random(11)
    for category in Category:
        for _ in range(150):
            term = random_term(rng, category)
            text = print_term(term)
            again, _ = parse_with_category(text, category)
            assert again == term, text
