"""Normal form payloads, their reconstruction, and the permutation toolkit."""

import random
import re

import pytest

from splitrel.fuzz import random_term, random_term_pair
from splitrel.normalform import (
    EtaBarNF,
    EtaNF,
    IotaNF,
    Perm,
    eta_nf,
    eta_nf_term,
    eta_term,
    etabar_nf,
    etabar_nf_term,
    etabar_term,
    iota_nf,
    iota_nf_term,
    perm_term,
)
from splitrel.relations import BinRel
from splitrel.semantics import equal, eval_term
from splitrel.terms import (
    Category,
    Comp,
    Counit,
    H,
    HBar,
    Id,
    Pad,
    Swap,
    TermTypeError,
    Unit,
    compose_chain,
    iota_term,
    pad,
    union_term,
    zero_term,
)


# ---------------------------------------------------------- payload validity


@pytest.mark.parametrize(
    "n, m, etas",
    [
        (1, 1, ((0, 1), (0, 1))),  # repetition
        (1, 1, ((1, 0), (0, 1))),  # unsorted
        (1, 1, ((0, 2),)),  # out of range
        (1, 1, ((1, 1),)),  # loop
        (2, 1, ((0, 1), (1, 2))),  # missing (0, 2)
        (-1, 0, ()),
    ],
)
def test_eta_payload_rejected(n, m, etas):
    with pytest.raises((ValueError, TypeError)):
        EtaNF(n, m, etas)


@pytest.mark.parametrize(
    "n, m, etas, message",
    [
        (1, 1, ((0, 1), (0, 1)), "pairs must be sorted and free of repetitions"),
        (1, 1, ((1, 0), (0, 1)), "pairs must be sorted and free of repetitions"),
        (1, 1, ((0, 2),), "eta pair (0, 2) out of range for 2 strands"),
        (1, 1, ((1, 1),), "eta pair may not repeat a strand: (1, 1)"),
        (2, 1, ((0, 1), (1, 2)),
         "not closed for strict transitivity: (0, 1) and (1, 2) demand (0, 2)"),
        (-1, 0, (), "negative arity"),
    ],
)
def test_eta_payload_rejection_messages(n, m, etas, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EtaNF(n, m, etas)


def test_eta_payload_accepts_closed_set():
    EtaNF(2, 1, ((0, 1), (0, 2), (1, 2)))
    EtaNF(0, 0, ())


@pytest.mark.parametrize(
    "n, m, etas",
    [
        (1, 1, ((1, 0),)),  # must be (min, max)
        (2, 1, ((0, 1), (1, 2))),  # components must be cliques
        (1, 1, ((0, 0),)),
    ],
)
def test_etabar_payload_rejected(n, m, etas):
    with pytest.raises(ValueError):
        EtaBarNF(n, m, etas)


@pytest.mark.parametrize(
    "n, m, etas, message",
    [
        (1, 1, ((1, 0),), "unordered pair must be stored as (min, max): (1, 0)"),
        (2, 1, ((0, 1), (1, 2)),
         "pairs do not close into cliques: {0, 1} and {1, 2} demand {0, 2}"),
        (1, 1, ((0, 0),), "unordered pair must be stored as (min, max): (0, 0)"),
    ],
)
def test_etabar_payload_rejection_messages(n, m, etas, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EtaBarNF(n, m, etas)


def test_etabar_payload_accepts_clique():
    EtaBarNF(2, 1, ((0, 1), (0, 2), (1, 2)))
    EtaBarNF(2, 2, ((0, 1), (2, 3)))


@pytest.mark.parametrize(
    "n, m, pairs",
    [(1, 1, ((0, 1),)), (1, 1, ((1, 0),)), (2, 2, ((0, 0), (0, 0)))],
)
def test_iota_payload_rejected(n, m, pairs):
    with pytest.raises(ValueError):
        IotaNF(n, m, pairs)


def test_payload_json_round_trips():
    nf = EtaNF(2, 2, ((0, 1), (0, 2), (0, 3), (1, 3), (2, 0), (2, 1), (2, 3), (3, 1)))
    assert EtaNF.from_json(nf.to_json()) == nf
    bar = EtaBarNF(1, 1, ((0, 1),))
    assert EtaBarNF.from_json(bar.to_json()) == bar
    rel = IotaNF(3, 2, ((0, 0), (0, 1), (2, 0)))
    assert IotaNF.from_json(rel.to_json()) == rel
    assert rel.to_json() == {"n": 3, "m": 2, "pairs": [[0, 0], [0, 1], [2, 0]]}


# ------------------------------------------------------------------- eta_nf


def test_eta_nf_of_empty_identity():
    assert eta_nf(Id(0)) == EtaNF(0, 0, ())


def test_eta_nf_of_identity_strand():
    assert eta_nf(Id(1)) == EtaNF(1, 1, ((0, 1), (1, 0)))


def test_eta_nf_of_h():
    nf = eta_nf(H())
    assert (nf.n, nf.m) == (2, 2)
    assert nf.etas == (
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 3),
        (2, 0),
        (2, 1),
        (2, 3),
        (3, 1),
    )


def test_eta_nf_of_swap():
    assert eta_nf(Swap()) == EtaNF(2, 2, ((0, 3), (1, 2), (2, 1), (3, 0)))


def test_eta_nf_rejects_foreign_terms():
    with pytest.raises(TermTypeError):
        eta_nf(HBar())


def test_foreign_term_messages_are_pinned():
    with pytest.raises(
        TermTypeError, match=r"^eta normal form needs a PF term, got EF$"
    ):
        eta_nf(HBar())
    with pytest.raises(
        TermTypeError,
        match=r"^overlined eta normal form needs a EF term, got PF$",
    ):
        etabar_nf(H())
    with pytest.raises(
        TermTypeError, match=r"^iota normal form needs a RB term, got PF$"
    ):
        iota_nf(H())


def test_eta_nf_worked_three_to_two():
    payload = EtaNF(3, 2, ((0, 2), (0, 3), (4, 2), (4, 3)))
    term = eta_nf_term(payload)
    assert eta_nf(term) == payload


# -------------------------------------------------------------- eta_nf_term


def test_eta_nf_term_empty_core():
    term = eta_nf_term(EtaNF(1, 1, ()))
    assert term == Comp(Pad(0, Counit(), 1), Pad(1, Unit(), 0))
    value = eval_term(term)
    assert not [p for p in value.pairs if p[0] != p[1]]


def test_eta_nf_term_of_nothing():
    assert eta_nf_term(EtaNF(0, 0, ())) == Id(0)


def test_eta_nf_term_factor_order():
    payload = EtaNF(1, 1, ((0, 1), (1, 0)))
    term = eta_nf_term(payload)
    # counits . eta(0,1) . eta(1,0) . units, right-nested
    expected = compose_chain(
        [
            pad(1, Unit(), 0),
            eta_term(1, 0, 2),
            eta_term(0, 1, 2),
            pad(0, Counit(), 1),
        ],
        1,
    )
    assert term == expected
    assert equal(term, Id(1))


def test_eta_round_trip_random():
    rng = random.Random(7121)
    for _ in range(120):
        t = random_term(rng, Category.PF, max_depth=4)
        nf = eta_nf(t)
        back = eta_nf_term(nf)
        assert equal(back, t)
        assert eta_nf(back) == nf


def test_eta_nf_decides_equality():
    rng = random.Random(7122)
    for _ in range(120):
        f, g = random_term_pair(rng, Category.PF, max_depth=4)
        assert equal(f, g) == (eta_nf(f) == eta_nf(g))


# ------------------------------------------------------------------- etabar


def test_etabar_nf_of_hbar():
    nf = etabar_nf(HBar())
    assert (nf.n, nf.m) == (2, 2)
    assert nf.etas == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_etabar_nf_of_identity_strand():
    assert etabar_nf(Id(1)) == EtaBarNF(1, 1, ((0, 1),))


def test_etabar_nf_rejects_foreign_terms():
    with pytest.raises(TermTypeError):
        etabar_nf(H())


def test_etabar_nf_term_reconstructs():
    payload = EtaBarNF(2, 1, ((0, 1), (0, 2), (1, 2)))
    term = etabar_nf_term(payload)
    assert etabar_nf(term) == payload


def test_etabar_round_trip_random():
    rng = random.Random(7123)
    for _ in range(120):
        t = random_term(rng, Category.EF, max_depth=4)
        nf = etabar_nf(t)
        back = etabar_nf_term(nf)
        assert equal(back, t)
        assert etabar_nf(back) == nf


def test_etabar_nf_decides_equality():
    rng = random.Random(7124)
    for _ in range(120):
        f, g = random_term_pair(rng, Category.EF, max_depth=4)
        assert equal(f, g) == (etabar_nf(f) == etabar_nf(g))


def test_etabar_factors_ignore_orientation():
    assert equal(etabar_term(0, 2, 3), etabar_term(2, 0, 3))


# --------------------------------------------------------------------- iota


def test_iota_nf_of_zero():
    assert iota_nf(zero_term(2, 3, Category.RB)) == IotaNF(2, 3, ())


def test_iota_nf_of_identity():
    assert iota_nf(Id(2)) == IotaNF(2, 2, ((0, 0), (1, 1)))


def test_iota_nf_worked_three_to_two():
    payload = IotaNF(3, 2, ((0, 0), (0, 1), (2, 0)))
    term = iota_nf_term(payload)
    assert iota_nf(term) == payload


def test_iota_nf_term_singleton():
    assert iota_nf_term(IotaNF(1, 1, ((0, 0),))) == iota_term(0, 0, 1, 1)


def test_iota_nf_term_empty_is_zero():
    assert iota_nf_term(IotaNF(2, 3, ())) == zero_term(2, 3, Category.RB)


def test_iota_nf_term_full_square():
    nf = IotaNF(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    term = iota_nf_term(nf)
    expected = union_term(
        iota_term(0, 0, 2, 2),
        union_term(
            iota_term(0, 1, 2, 2),
            union_term(iota_term(1, 0, 2, 2), iota_term(1, 1, 2, 2)),
        ),
    )
    assert term == expected


def test_iota_reconstructs_arbitrary_relations():
    rng = random.Random(7125)
    for _ in range(200):
        n = rng.randrange(0, 4)
        m = rng.randrange(0, 4)
        pairs = tuple(
            sorted(
                {
                    (rng.randrange(n), rng.randrange(m))
                    for _ in range(rng.randrange(0, n * m + 1))
                }
            )
            if n and m
            else ()
        )
        nf = IotaNF(n, m, pairs)
        value = eval_term(iota_nf_term(nf), category=Category.RB)
        assert value == BinRel(n, m, frozenset(pairs))
        assert iota_nf(iota_nf_term(nf)) == nf


def test_iota_nf_decides_equality():
    rng = random.Random(7126)
    for _ in range(120):
        f, g = random_term_pair(rng, Category.RB, max_depth=4)
        assert equal(f, g) == (iota_nf(f) == iota_nf(g))


def test_iota_nf_rejects_foreign_terms():
    with pytest.raises(TermTypeError):
        iota_nf(H())


# ------------------------------------------------- permutation lemma checks


def test_bridge_conjugation_commutes_with_padding():
    """A padded bridge composed with a permutation that routes 0,1 to the
    pad position equals the permutation applied after the unpadded bridge."""
    rng = random.Random(7127)
    for _ in range(100):
        n = rng.randrange(0, 4)
        k = rng.randrange(0, n + 1)
        images = [k, k + 1] + [x for x in range(n + 2) if x not in (k, k + 1)]
        p = Perm(tuple(images))
        lhs = Comp(pad(k, H(), n - k), perm_term(p))
        rhs = Comp(perm_term(p), pad(0, H(), n))
        assert equal(lhs, rhs)


def test_eta_term_independent_of_route():
    rng = random.Random(7128)
    for _ in range(100):
        n = rng.randrange(2, 6)
        i, j = rng.sample(range(n), 2)
        k = rng.randrange(0, n - 1)
        rest = [x for x in range(n) if x not in (i, j)]
        targets = [x for x in range(n) if x not in (k, k + 1)]
        rng.shuffle(targets)
        images = [0] * n
        images[i] = k
        images[j] = k + 1
        for pos, value in zip(rest, targets):
            images[pos] = value
        p = Perm(tuple(images))
        routed = compose_chain(
            [perm_term(p), pad(k, H(), n - 2 - k), perm_term(p.inverse())], n
        )
        assert equal(routed, eta_term(i, j, n))
