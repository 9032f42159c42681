"""Core split-relation tests, checked against independent oracles.

The oracles here deliberately share no code with the implementation:
chain closure by repeated set-comprehension joins, composition through
an explicitly tagged three-layer universe, and a boolean matrix product
for plain relations.
"""
from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitrel.relations import (
    SRC,
    TGT,
    BinRel,
    Node,
    SplitRelation,
    bar_union,
    compose_rel,
    compose_rows,
    compose_split,
    domain_of,
    embed_function,
    embed_relation,
    identity_split,
    pack_rows,
    restrict_away,
    semi_embed_M,
    src,
    stride_for,
    strict_part,
    tgt,
    transitive_closure,
    unpack_rows,
)

# --------------------------------------------------------------------
# oracles


def closure_oracle(pairs):
    """Chain closure by repeated pairwise joins until fixpoint."""
    cur = frozenset(pairs)
    while True:
        nxt = cur | frozenset(
            (x, w) for (x, y) in cur for (z, w) in cur if y == z
        )
        if nxt == cur:
            return cur
        cur = nxt


def compose_oracle(P: SplitRelation, Q: SplitRelation) -> SplitRelation:
    """Composition via an explicit three-layer universe and chain closure."""
    assert P.m == Q.n

    def from_p(x: Node):
        return ("a", x.pos) if x.tag == SRC else ("b", x.pos)

    def from_q(x: Node):
        return ("b", x.pos) if x.tag == SRC else ("c", x.pos)

    union = frozenset((from_p(x), from_p(y)) for (x, y) in P.pairs) | frozenset(
        (from_q(x), from_q(y)) for (x, y) in Q.pairs
    )
    closed = closure_oracle(union)

    def back(v):
        layer, i = v
        return src(i) if layer == "a" else tgt(i)

    kept = frozenset(
        (back(x), back(y))
        for (x, y) in closed
        if x[0] != "b" and y[0] != "b"
    )
    return SplitRelation(P.n, Q.m, kept)


def matrix_compose_oracle(R: BinRel, S: BinRel) -> BinRel:
    """Boolean matrix product."""
    assert R.m == S.n
    a = [[False] * R.m for _ in range(R.n)]
    for i, j in R.pairs:
        a[i][j] = True
    b = [[False] * S.m for _ in range(S.n)]
    for i, j in S.pairs:
        b[i][j] = True
    out = frozenset(
        (i, k)
        for i in range(R.n)
        for k in range(S.m)
        if any(a[i][j] and b[j][k] for j in range(R.m))
    )
    return BinRel(R.n, S.m, out)


# --------------------------------------------------------------------
# generators


def all_nodes(n: int, m: int) -> list[Node]:
    return [src(i) for i in range(n)] + [tgt(j) for j in range(m)]


def loops(n: int, m: int):
    return frozenset((x, x) for x in all_nodes(n, m))


def random_relation(rng: random.Random, n: int, m: int, density=0.3) -> SplitRelation:
    nodes = all_nodes(n, m)
    pairs = frozenset(
        (x, y) for x in nodes for y in nodes if rng.random() < density
    )
    return SplitRelation(n, m, pairs)


def random_preorder(rng: random.Random, n: int, m: int, density=0.2) -> SplitRelation:
    base = random_relation(rng, n, m, density)
    return SplitRelation(n, m, closure_oracle(base.pairs | loops(n, m)))


def random_equivalence(rng: random.Random, n: int, m: int, density=0.2) -> SplitRelation:
    base = random_relation(rng, n, m, density)
    sym = base.pairs | frozenset((y, x) for (x, y) in base.pairs)
    return SplitRelation(n, m, closure_oracle(sym | loops(n, m)))


@st.composite
def split_relations(draw, max_size=3, n=None, m=None):
    n = draw(st.integers(0, max_size)) if n is None else n
    m = draw(st.integers(0, max_size)) if m is None else m
    nodes = all_nodes(n, m)
    if not nodes:
        return SplitRelation(n, m, frozenset())
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    return SplitRelation(n, m, draw(st.frozensets(pair)))


@st.composite
def split_preorders(draw, max_size=3):
    r = draw(split_relations(max_size))
    return SplitRelation(r.n, r.m, closure_oracle(r.pairs | loops(r.n, r.m)))


# --------------------------------------------------------------------
# domain, closure, union, restriction


def test_domain_of_covers_both_components():
    r = SplitRelation(1, 2, {(src(0), tgt(1))})
    assert domain_of(r) == {src(0), tgt(1)}


def test_domain_of_empty():
    assert domain_of(SplitRelation(2, 2, frozenset())) == frozenset()


def test_domain_of_full_square_is_the_square_base():
    x = {src(0), tgt(0)}
    r = SplitRelation(1, 1, {(a, b) for a in x for b in x})
    assert domain_of(r) == x


def test_transitive_closure_fixpoint_on_transitive_input():
    rng = random.Random(7)
    for _ in range(50):
        p = random_preorder(rng, 2, 2)
        assert transitive_closure(p) == p


def test_transitive_closure_adds_single_chain_step():
    base = loops(2, 1) | {(src(0), src(1)), (src(1), tgt(0))}
    closed = transitive_closure(SplitRelation(2, 1, base))
    assert closed.pairs == base | {(src(0), tgt(0))}


def test_transitive_closure_matches_chain_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        r = random_relation(rng, n, m)
        reflexive = SplitRelation(n, m, r.pairs | loops(n, m))
        assert transitive_closure(reflexive).pairs == closure_oracle(
            reflexive.pairs
        )


def test_transitive_closure_laws():
    # containment, idempotence, monotonicity
    rng = random.Random(13)
    for _ in range(100):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p = random_relation(rng, n, m)
        q = SplitRelation(n, m, p.pairs | random_relation(rng, n, m).pairs)
        tp = transitive_closure(p)
        assert p.pairs <= tp.pairs
        assert transitive_closure(tp).pairs <= tp.pairs
        assert tp.pairs <= transitive_closure(q).pairs


def test_bar_union_self_is_closure():
    rng = random.Random(17)
    for _ in range(50):
        p = random_preorder(rng, 2, 2)
        assert bar_union(p, p) == transitive_closure(p)


def test_bar_union_absorbs_inner_closure():
    rng = random.Random(19)
    for _ in range(100):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p = random_relation(rng, n, m)
        q = random_relation(rng, n, m)
        assert bar_union(p, transitive_closure(q)) == bar_union(p, q)


def test_bar_union_associative():
    rng = random.Random(23)
    for _ in range(100):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p, q, s = (random_relation(rng, n, m) for _ in range(3))
        assert bar_union(p, bar_union(q, s)) == bar_union(bar_union(p, q), s)


def test_restrict_away_nothing_is_identity():
    rng = random.Random(29)
    r = random_relation(rng, 3, 2)
    assert restrict_away(r, frozenset()) == r


def test_restrict_away_drops_touching_pairs():
    r = SplitRelation(1, 2, {(src(0), tgt(1)), (tgt(1), tgt(1))})
    assert restrict_away(r, {tgt(1)}).pairs == frozenset()


def test_restrict_away_nested_equals_union():
    rng = random.Random(31)
    for _ in range(100):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        r = random_relation(rng, n, m)
        nodes = all_nodes(n, m)
        x = frozenset(v for v in nodes if rng.random() < 0.4)
        y = frozenset(v for v in nodes if rng.random() < 0.4)
        assert restrict_away(restrict_away(r, x), y) == restrict_away(r, x | y)


def test_restriction_lemma_on_closed_left_part():
    # if P is closed and Q avoids X then restricting commutes with closing
    rng = random.Random(37)
    for _ in range(200):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p = SplitRelation(n, m, closure_oracle(random_relation(rng, n, m).pairs))
        nodes = all_nodes(n, m)
        x = frozenset(v for v in nodes if rng.random() < 0.4)
        q = restrict_away(random_relation(rng, n, m), x)
        union = SplitRelation(n, m, p.pairs | q.pairs)
        lhs = restrict_away(transitive_closure(union), x)
        rhs = transitive_closure(restrict_away(union, x))
        assert lhs == rhs


def test_restriction_distributes_over_plain_union():
    # if R2 avoids X then R1^{-X} ∪ R2 = (R1 ∪ R2)^{-X}
    rng = random.Random(41)
    for _ in range(200):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        r1 = random_relation(rng, n, m)
        nodes = all_nodes(n, m)
        x = frozenset(v for v in nodes if rng.random() < 0.4)
        r2 = restrict_away(random_relation(rng, n, m), x)
        lhs = restrict_away(r1, x).pairs | r2.pairs
        rhs = restrict_away(SplitRelation(n, m, r1.pairs | r2.pairs), x).pairs
        assert lhs == rhs


# --------------------------------------------------------------------
# composition


def test_compose_matches_three_layer_oracle():
    rng = random.Random(43)
    for _ in range(200):
        a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        p = random_preorder(rng, a, b)
        q = random_preorder(rng, b, c)
        assert compose_split(p, q) == compose_oracle(p, q)


def test_compose_example_shape_2_3_2():
    rng = random.Random(47)
    for _ in range(50):
        p = random_preorder(rng, 2, 3)
        q = random_preorder(rng, 3, 2)
        assert compose_split(p, q) == compose_oracle(p, q)


def test_compose_identity_laws():
    rng = random.Random(53)
    for _ in range(50):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p = random_preorder(rng, n, m)
        assert compose_split(identity_split(n), p) == p
        assert compose_split(p, identity_split(m)) == p


def _flat_rows(r: SplitRelation) -> list[int]:
    index = {x: i for i, x in enumerate(all_nodes(r.n, r.m))}
    rows = [0] * (r.n + r.m)
    for x, y in r.pairs:
        rows[index[x]] |= 1 << index[y]
    return rows


def test_of_rows_inverts_flat_rows():
    rng = random.Random(61)
    for _ in range(100):
        r = random_relation(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert SplitRelation._of_rows(r.n, r.m, _flat_rows(r)) == r


def _compose_flat(n, mid, k, p_rows, q_rows, vias=None):
    # the packed kernel on row lists, through pack and unpack
    stride, body_stride = stride_for(n + mid + k), stride_for(mid + k)
    before = (n, mid, stride, pack_rows(p_rows, stride))
    body = (mid, k, body_stride, pack_rows(q_rows, body_stride))
    n, k, stride, rows = compose_rows(before, 0, body, 0, vias)
    return unpack_rows(n + k, stride, rows)


def test_compose_rows_middle_band_suffices_for_transitive_factors():
    # transitive factors, reflexive or not: closing through the middle
    # band alone gives the full composition
    rng = random.Random(71)
    for _ in range(300):
        a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        p = random_relation(rng, a, b)
        q = random_relation(rng, b, c)
        if rng.random() < 0.5:
            p = SplitRelation(a, b, closure_oracle(p.pairs))
            q = SplitRelation(b, c, closure_oracle(q.pairs))
        else:
            p, q = random_preorder(rng, a, b), random_preorder(rng, b, c)
        rows = _compose_flat(
            a, b, c, _flat_rows(p), _flat_rows(q), range(a, a + b)
        )
        assert SplitRelation._of_rows(a, c, rows) == compose_oracle(p, q)
        assert rows == _compose_flat(a, b, c, _flat_rows(p), _flat_rows(q))


def test_compose_size_mismatch_raises():
    with pytest.raises(ValueError):
        compose_split(identity_split(2), identity_split(3))


@settings(max_examples=60, deadline=None)
@given(split_preorders(2), st.data())
def test_compose_associative(p, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    q = random_preorder(rng, p.m, rng.randint(0, 2))
    s = random_preorder(rng, q.m, rng.randint(0, 2))
    lhs = compose_split(compose_split(p, q), s)
    rhs = compose_split(p, compose_split(q, s))
    assert lhs == rhs


def test_compose_preserves_preorder_and_equivalence():
    rng = random.Random(59)
    for _ in range(100):
        a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        p = random_preorder(rng, a, b)
        q = random_preorder(rng, b, c)
        r = compose_split(p, q)
        assert r.is_preorder()
        e1 = random_equivalence(rng, a, b)
        e2 = random_equivalence(rng, b, c)
        assert compose_split(e1, e2).is_equivalence()


def test_identity_split_values():
    assert identity_split(0) == SplitRelation(0, 0, frozenset())
    assert identity_split(1).pairs == frozenset(
        {
            (src(0), src(0)),
            (tgt(0), tgt(0)),
            (src(0), tgt(0)),
            (tgt(0), src(0)),
        }
    )
    i2 = identity_split(2)
    assert compose_split(i2, i2) == i2


# --------------------------------------------------------------------
# embeddings


def test_embed_relation_worked_example():
    r = BinRel(3, 3, {(0, 0), (0, 1), (1, 1), (1, 2)})
    e = embed_relation(r)
    assert strict_part(e).pairs == frozenset(
        {
            (src(0), tgt(0)),
            (src(0), tgt(1)),
            (src(1), tgt(1)),
            (src(1), tgt(2)),
        }
    )


def test_embed_relation_empty_gives_loops_only():
    e = embed_relation(BinRel(2, 1, frozenset()))
    assert e.pairs == loops(2, 1)


def test_embed_relation_preserves_composition():
    rng = random.Random(61)
    for _ in range(200):
        a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        r = BinRel(
            a, b, frozenset((i, j) for i in range(a) for j in range(b) if rng.random() < 0.4)
        )
        s = BinRel(
            b, c, frozenset((i, j) for i in range(b) for j in range(c) if rng.random() < 0.4)
        )
        assert embed_relation(compose_rel(r, s)) == compose_split(
            embed_relation(r), embed_relation(s)
        )


def test_embed_relation_is_only_a_semi_functor():
    for n in range(1, 5):
        ident = BinRel(n, n, frozenset((i, i) for i in range(n)))
        e = embed_relation(ident)
        assert e != identity_split(n)
        assert compose_split(e, e) == e


def test_embed_function_identity_hits_identity():
    for n in range(0, 4):
        f = BinRel(n, n, frozenset((i, i) for i in range(n)))
        assert embed_function(f) == identity_split(n)


def test_embed_function_constant_merges_sources_with_value():
    f = BinRel(2, 1, {(0, 0), (1, 0)})
    e = embed_function(f)
    cls = {src(0), src(1), tgt(0)}
    assert e.pairs == frozenset((a, b) for a in cls for b in cls)


def test_embed_function_preserves_composition_exhaustively():
    size = 2
    functions = [
        BinRel(size, size, frozenset(enumerate(img)))
        for img in itertools.product(range(size), repeat=size)
    ]
    for f in functions:
        for g in functions:
            assert embed_function(compose_rel(f, g)) == compose_split(
                embed_function(f), embed_function(g)
            )


def test_embed_function_rejects_non_functions():
    with pytest.raises(ValueError):
        embed_function(BinRel(2, 2, {(0, 0), (0, 1), (1, 0)}))
    with pytest.raises(ValueError):
        embed_function(BinRel(2, 2, {(0, 0)}))


def test_compose_rel_matches_matrix_oracle():
    rng = random.Random(67)
    for _ in range(200):
        a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        r = BinRel(
            a, b, frozenset((i, j) for i in range(a) for j in range(b) if rng.random() < 0.4)
        )
        s = BinRel(
            b, c, frozenset((i, j) for i in range(b) for j in range(c) if rng.random() < 0.4)
        )
        assert compose_rel(r, s) == matrix_compose_oracle(r, s)


def test_compose_rel_small_cases():
    ident = BinRel(2, 2, {(0, 0), (1, 1)})
    r = BinRel(2, 2, {(0, 1)})
    s = BinRel(2, 2, {(1, 0)})
    assert compose_rel(r, ident) == r
    assert compose_rel(r, s) == BinRel(2, 2, {(0, 0)})


def test_compose_rel_size_mismatch_raises():
    with pytest.raises(ValueError):
        compose_rel(BinRel(1, 2, frozenset()), BinRel(3, 1, frozenset()))


# --------------------------------------------------------------------
# strict part and the down-strand embedding


def test_strict_part_of_identity():
    assert strict_part(identity_split(2)).pairs == frozenset(
        {
            (src(0), tgt(0)),
            (tgt(0), src(0)),
            (src(1), tgt(1)),
            (tgt(1), src(1)),
        }
    )


def test_strict_part_of_loops_only_is_empty():
    assert strict_part(embed_relation(BinRel(2, 2, frozenset()))).pairs == frozenset()


def test_strict_part_round_trips_with_loops():
    rng = random.Random(71)
    for _ in range(100):
        p = random_preorder(rng, 2, 2)
        s = strict_part(p)
        assert SplitRelation(p.n, p.m, s.pairs | loops(p.n, p.m)) == p


def test_strict_part_strictly_transitive():
    rng = random.Random(73)
    for _ in range(100):
        p = random_preorder(rng, 3, 2)
        s = strict_part(p).pairs
        for (x, y) in s:
            for (y2, z) in s:
                if y == y2 and x != z:
                    assert (x, z) in s


def test_semi_embed_adds_fresh_down_strand_in_front():
    e = semi_embed_M(embed_relation(BinRel(1, 1, {(0, 0)})))
    assert e.n == 2 and e.m == 2
    assert strict_part(e).pairs == frozenset(
        {(src(0), tgt(0)), (src(1), tgt(1))}
    )


def test_semi_embed_image_of_identity_is_idempotent_not_identity():
    down = semi_embed_M(embed_relation(BinRel(0, 0, frozenset())))
    assert down.n == 1 and down.m == 1
    assert strict_part(down).pairs == {(src(0), tgt(0))}
    assert down != identity_split(1)
    assert compose_split(down, down) == down


def test_semi_embed_rejects_values_outside_the_relation_image():
    with pytest.raises(ValueError):
        semi_embed_M(identity_split(1))  # has an upward pair
    with pytest.raises(ValueError):
        semi_embed_M(SplitRelation(1, 1, {(src(0), tgt(0))}))  # no loops


def test_semi_embed_commutes_with_composition():
    rng = random.Random(79)
    for _ in range(100):
        a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        r = BinRel(
            a, b, frozenset((i, j) for i in range(a) for j in range(b) if rng.random() < 0.4)
        )
        s = BinRel(
            b, c, frozenset((i, j) for i in range(b) for j in range(c) if rng.random() < 0.4)
        )
        lhs = semi_embed_M(embed_relation(compose_rel(r, s)))
        rhs = compose_split(
            semi_embed_M(embed_relation(r)), semi_embed_M(embed_relation(s))
        )
        assert lhs == rhs


# --------------------------------------------------------------------
# representation details


def test_pairs_are_coerced_to_node_tuples():
    r = SplitRelation(1, 1, {(("s", 0), ("t", 0))})
    ((x, y),) = r.pairs
    assert x.tag == SRC and y.tag == TGT


def test_out_of_bounds_nodes_rejected():
    with pytest.raises(ValueError):
        SplitRelation(1, 1, {(src(1), tgt(0))})
    with pytest.raises(ValueError):
        BinRel(1, 1, {(0, 1)})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SplitRelation(-1, 0), "negative size in -1->0"),
        (lambda: SplitRelation(0, -2), "negative size in 0->-2"),
        (
            lambda: SplitRelation(1, 1, {(("x", 0), ("s", 0))}),
            "bad tag in node Node(tag='x', pos=0)",
        ),
        (
            lambda: SplitRelation(1, 1, {(src(1), tgt(0))}),
            "node Node(tag='s', pos=1) out of bounds for type 1->1",
        ),
        (
            lambda: SplitRelation(1, 1, {(src(0), tgt(-1))}),
            "node Node(tag='t', pos=-1) out of bounds for type 1->1",
        ),
        (lambda: BinRel(-1, 1), "negative size in -1->1"),
        (lambda: BinRel(1, 1, {(0, 1)}), "pair (0,1) out of bounds for type 1->1"),
        (lambda: BinRel(2, 1, {(-1, 0)}), "pair (-1,0) out of bounds for type 2->1"),
        (
            lambda: embed_function(BinRel(2, 2, {(0, 0), (0, 1)})),
            "not single-valued at 0",
        ),
        (lambda: embed_function(BinRel(2, 2, {(0, 0)})), "not total"),
        # a value that is neither: single-valuedness is reported first
        (
            lambda: embed_function(BinRel(3, 2, {(1, 0), (1, 1)})),
            "not single-valued at 1",
        ),
        (
            lambda: semi_embed_M(identity_split(1)),
            "input is not the embedding of a plain relation",
        ),
        (
            lambda: bar_union(identity_split(1), identity_split(2)),
            "cannot unite 1->1 with 2->2",
        ),
        (
            lambda: compose_split(identity_split(2), identity_split(3)),
            "cannot compose 2->2 with 3->3: middle sizes differ",
        ),
        (
            lambda: compose_rel(BinRel(1, 2), BinRel(3, 1)),
            "cannot compose 1->2 with 3->1: middle sizes differ",
        ),
    ],
)
def test_error_messages_are_pinned(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@given(split_relations())
def test_split_relation_json_round_trip(r):
    assert SplitRelation.from_json(r.to_json()) == r


def test_split_relation_json_exact_form():
    r = embed_relation(BinRel(1, 2, {(0, 1)}))
    assert r.to_json() == (
        '{"n":1,"m":2,"pairs":'
        '[[["s",0],["s",0]],[["s",0],["t",1]],'
        '[["t",0],["t",0]],[["t",1],["t",1]]]}'
    )


def test_binrel_json_exact_form_and_round_trip():
    r = BinRel(2, 2, {(1, 0), (0, 0)})
    assert r.to_json() == '{"n":2,"m":2,"pairs":[[0,0],[1,0]]}'
    assert BinRel.from_json(r.to_json()) == r


def test_json_is_valid_and_sorted():
    rng = random.Random(83)
    for _ in range(50):
        p = random_preorder(rng, 3, 3)
        obj = json.loads(p.to_json())
        assert obj["pairs"] == sorted(obj["pairs"])


# --------------------------------------------------------------------
# the row representation against the pair view
#
# The oracles below are the bodies the operations had when a value held
# a set of `Node` pairs; every row-based operation is compared with its
# oracle on random values.


@st.composite
def bin_rels(draw, max_size=3, n=None):
    n = draw(st.integers(0, max_size)) if n is None else n
    m = draw(st.integers(0, max_size))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(m - 1, 0)))
    return BinRel(n, m, draw(st.frozensets(pairs)) if n and m else frozenset())


def restrict_away_oracle(r, x):
    banned = frozenset(Node(*v) for v in x)
    return frozenset(
        (a, b) for (a, b) in r.pairs if a not in banned and b not in banned
    )


def identity_oracle(n):
    pairs = set()
    for i in range(n):
        pairs.update(
            {(src(i), src(i)), (tgt(i), tgt(i)), (src(i), tgt(i)), (tgt(i), src(i))}
        )
    return frozenset(pairs)


def embed_relation_oracle(r):
    return loops(r.n, r.m) | frozenset((src(a), tgt(b)) for (a, b) in r.pairs)


def embed_function_oracle(f):
    mapping = {}
    for a, b in sorted(f.pairs):
        if a in mapping:
            raise ValueError(f"not single-valued at {a}")
        mapping[a] = b
    if len(mapping) != f.n:
        raise ValueError("not total")
    classes = {b: [tgt(b)] for b in range(f.m)}
    for a, b in mapping.items():
        classes[b].append(src(a))
    return frozenset(
        (x, y) for members in classes.values() for x in members for y in members
    )


def compose_rel_oracle(r, s):
    by_first = {}
    for b, c in s.pairs:
        by_first.setdefault(b, set()).add(c)
    return frozenset((a, c) for (a, b) in r.pairs for c in by_first.get(b, ()))


def strict_part_oracle(p):
    return frozenset((x, y) for (x, y) in p.pairs if x != y)


def semi_embed_oracle(p):
    strict = strict_part_oracle(p)
    looks_embedded = all((x, x) in p.pairs for x in all_nodes(p.n, p.m)) and all(
        x.tag == SRC and y.tag == TGT for (x, y) in strict
    )
    if not looks_embedded:
        raise ValueError("input is not the embedding of a plain relation")
    shifted = frozenset((src(x.pos + 1), tgt(y.pos + 1)) for (x, y) in strict)
    return loops(p.n + 1, p.m + 1) | shifted | {(src(0), tgt(0))}


def is_transitive_oracle(r):
    by_first = {}
    for x, y in r.pairs:
        by_first.setdefault(x, set()).add(y)
    return all(
        (x, z) in r.pairs for (x, y) in r.pairs for z in by_first.get(y, ())
    )


def outcome(build):
    """The pairs `build` returns, or the message of the ValueError it raises."""
    try:
        value = build()
    except ValueError as exc:
        return str(exc)
    return value if isinstance(value, frozenset) else value.pairs


@given(split_relations())
def test_pairs_and_rows_round_trip(r):
    assert SplitRelation(r.n, r.m, r.pairs) == r
    assert SplitRelation(r.n, r.m, pairs=r.pairs) == r
    from_rows = SplitRelation._of_rows(r.n, r.m, r.rows)
    assert "pairs" not in from_rows.__dict__
    assert from_rows == r and hash(from_rows) == hash(r)
    assert from_rows.pairs == r.pairs
    assert from_rows.pairs is from_rows.pairs  # built once, then kept
    assert r.to_json_obj()["pairs"] == [
        [list(x), list(y)] for (x, y) in sorted(r.pairs)
    ]


@given(bin_rels())
def test_binrel_pairs_and_rows_round_trip(r):
    assert BinRel(r.n, r.m, r.pairs) == r
    from_rows = BinRel._of_rows(r.n, r.m, r.rows)
    assert "pairs" not in from_rows.__dict__
    assert from_rows == r and hash(from_rows) == hash(r)
    assert from_rows.pairs == r.pairs
    assert r.to_json_obj()["pairs"] == [list(p) for p in sorted(r.pairs)]


def test_a_value_keeps_the_pairs_it_was_given_and_stays_frozen():
    given_pairs = frozenset({(src(0), tgt(0))})
    r = SplitRelation(1, 1, given_pairs)
    assert r.__dict__["pairs"] == given_pairs and r.rows == (0b10, 0)
    assert BinRel(2, 1, {(1, 0)}).rows == (0, 1)
    with pytest.raises(AttributeError):
        r.pairs = frozenset()
    with pytest.raises(AttributeError):
        r.rows = (0, 0)
    assert SplitRelation(1, 1) != BinRel(1, 1)


@settings(max_examples=200)
@given(split_relations(), st.data())
def test_split_operations_match_their_pair_set_oracles(r, data):
    n, m = r.n, r.m
    q = data.draw(split_relations(n=n, m=m))
    nodes = all_nodes(n, m)
    x = data.draw(st.frozensets(st.sampled_from(nodes))) if nodes else frozenset()
    assert transitive_closure(r).pairs == closure_oracle(r.pairs)
    assert bar_union(r, q).pairs == closure_oracle(r.pairs | q.pairs)
    assert restrict_away(r, x).pairs == restrict_away_oracle(r, x)
    assert strict_part(r).pairs == strict_part_oracle(r)
    assert domain_of(r) == frozenset(v for pair in r.pairs for v in pair)
    assert r.is_reflexive() == all((v, v) in r.pairs for v in nodes)
    assert r.is_transitive() == is_transitive_oracle(r)
    assert r.is_symmetric() == all((y, v) in r.pairs for (v, y) in r.pairs)
    assert outcome(lambda: semi_embed_M(r)) == outcome(lambda: semi_embed_oracle(r))
    other = data.draw(split_relations(n=m))
    assert compose_split(r, other) == compose_oracle(r, other)


@settings(max_examples=200)
@given(bin_rels(), st.data())
def test_relation_operations_match_their_pair_set_oracles(r, data):
    s = data.draw(bin_rels(n=r.m))
    assert compose_rel(r, s).pairs == compose_rel_oracle(r, s)
    assert embed_relation(r).pairs == embed_relation_oracle(r)
    embedded = embed_relation(r)
    assert semi_embed_M(embedded).pairs == semi_embed_oracle(embedded)
    assert outcome(lambda: embed_function(r)) == outcome(
        lambda: embed_function_oracle(r)
    )
    images = data.draw(st.lists(st.integers(0, 2), min_size=r.n, max_size=r.n))
    f = BinRel(r.n, 3, enumerate(images))
    assert embed_function(f).pairs == embed_function_oracle(f)


def test_identity_matches_its_pair_set_oracle():
    for n in range(6):
        assert identity_split(n).pairs == identity_oracle(n)
