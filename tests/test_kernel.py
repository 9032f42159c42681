"""The packed composition kernel against the row-list code it replaced.

`relations.compose_rows` and `relations.compose_rel_rows` compose values
held as one int each, `(n, m, stride, packed rows)`.  The oracles below
are the row-list kernels they replaced, kept as they were: a Warshall
sweep over a list of rows, the glue and the cut row by row, and the RB
composition that tests each bit of each row.  Strides are drawn at and
above the least that fits, so the re-striding of either factor and both
packing paths (at most 64 bits a row, and wider) are exercised.
"""
import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from splitrel import cli, relations
from splitrel.dsl import parse
from splitrel.relations import (
    compose_rel_rows,
    compose_rows,
    diagonal,
    pack_rows,
    stride_for,
    unpack_rows,
)
from splitrel.semantics import _rows, _same_value, _walk, _MODELS
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
    Unit,
    UnitK,
    compose_chain,
    pad,
    zero_term,
)

# --------------------------------------------------------------------
# the row-list kernels


def _closed(rows, vias):
    # Warshall sweep through the points in `vias`; adds exactly the pairs
    # reachable by chains whose inner points all lie in `vias`.
    for via in vias:
        vrow = rows[via]
        bit = 1 << via
        rows = [row | vrow if row & bit else row for row in rows]
    return rows


def compose_rows_oracle(n, mid, k, p_rows, q_rows, vias=None, left=0, right=0):
    # rows of p : n->mid composed with the padding of q's body by `left`
    # and `right` strands, over n + k points
    a, b = mid - left - right, k - left - right
    body, tail, cut = n + left, n + left + a, n + mid
    low = (1 << a) - 1
    rows = list(p_rows) + [0] * b
    for j, row in enumerate(q_rows):
        glued = (row & low) << body | row >> a << cut
        rows[body + j if j < a else cut + j - a] |= glued
    rows = _closed(rows, range(cut + b) if vias is None else vias)
    head, strands = (1 << body) - 1, (1 << right) - 1
    return [
        row & head | row >> cut << body | (row >> tail & strands) << (body + b)
        for row in rows[:body] + rows[cut:] + rows[tail:cut]
    ]


def rel_then_padded_oracle(before, left, body, right):
    # strand bits shift into place; only the body's source bits are looked up
    n, _, r_rows = before
    a, b, s_rows = body
    head, tail = (1 << left) - 1, left + a
    shifted = [s_row << left for s_row in s_rows]
    composed = []
    for row in r_rows:
        out = row & head | row >> tail << (left + b)
        for j, s_row in enumerate(shifted, left):
            if row >> j & 1:
                out |= s_row
        composed.append(out)
    return n, left + b + right, composed


# --------------------------------------------------------------------
# random inputs


def _strides(width):
    # the least stride that holds `width` bits, and some wider ones
    return st.sampled_from([stride_for(width) << e for e in range(4)])


@st.composite
def _rows_of(draw, count, width):
    return [draw(st.integers(0, (1 << width) - 1)) for _ in range(count)]


@st.composite
def split_compositions(draw):
    n, left, a, right, b = (draw(st.integers(0, 5)) for _ in range(5))
    mid = left + a + right
    p_rows = draw(_rows_of(n + mid, n + mid))
    q_rows = draw(_rows_of(a + b, a + b))
    vias = draw(
        st.one_of(
            st.none(),
            st.just(range(n + left, n + left + a)),
            st.lists(st.integers(0, max(n + mid + b - 1, 0)), max_size=8)
            if n + mid + b
            else st.just([]),
        )
    )
    p_stride, q_stride = draw(_strides(n + mid)), draw(_strides(a + b))
    return (n, mid, p_stride, p_rows), left, (a, b, q_stride, q_rows), right, vias


@st.composite
def rel_compositions(draw):
    n, left, a, right, b = (draw(st.integers(0, 5)) for _ in range(5))
    mid = left + a + right
    r_rows = draw(_rows_of(n, mid))
    s_rows = draw(_rows_of(a, b))
    r_stride, s_stride = draw(_strides(mid)), draw(_strides(b))
    return (n, mid, r_stride, r_rows), left, (a, b, s_stride, s_rows), right


def _pack(value):
    n, m, stride, rows = value
    return n, m, stride, pack_rows(rows, stride)


# --------------------------------------------------------------------
# the kernels


@settings(max_examples=400, deadline=None)
@given(split_compositions())
def test_compose_rows_matches_the_row_list_kernel(case):
    p, left, body, right, vias = case
    n, mid, p_stride, p_rows = p
    a, b, _, q_rows = body
    k = left + b + right
    value = compose_rows(_pack(p), left, _pack(body), right, vias)
    got_n, got_k, stride, packed = value
    assert (got_n, got_k) == (n, k)
    expected = compose_rows_oracle(n, mid, k, p_rows, q_rows, vias, left, right)
    assert unpack_rows(n + k, stride, packed) == expected
    # p's stride is kept while the glued points fit, else re-strided once
    assert stride == (p_stride if n + mid + b <= p_stride else stride_for(n + mid + b))
    assert packed >> (n + k) * stride == 0


@settings(max_examples=400, deadline=None)
@given(rel_compositions())
def test_compose_rel_rows_matches_the_row_list_kernel(case):
    r, left, body, right = case
    n, mid, r_stride, r_rows = r
    a, b, _, s_rows = body
    k = left + b + right
    got_n, got_k, stride, packed = compose_rel_rows(_pack(r), left, _pack(body), right)
    expected = rel_then_padded_oracle((n, mid, r_rows), left, (a, b, s_rows), right)
    assert (got_n, got_k, unpack_rows(n, stride, packed)) == expected
    assert stride == (r_stride if k <= r_stride else stride_for(k))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(0, 9), st.data())
def test_pack_and_unpack_invert_each_other(count, extra, data):
    stride = 8 << extra  # 8 to 4096 bits a row: both packing paths
    width = data.draw(st.integers(0, stride))
    rows = data.draw(_rows_of(count, width))
    packed = pack_rows(rows, stride)
    assert unpack_rows(count, stride, packed) == rows
    assert packed == sum(row << i * stride for i, row in enumerate(rows))


def test_diagonal_sets_bit_r_of_row_r():
    for count in range(0, 70):
        stride = stride_for(count)
        expected = sum(1 << i * stride + i for i in range(count))
        assert diagonal(count, stride) == expected
        assert diagonal(count, stride << 1) == sum(
            1 << i * (stride << 1) + i for i in range(count)
        )


def test_stride_for_is_the_least_power_of_two_from_8():
    assert [stride_for(w) for w in (0, 1, 8, 9, 16, 17, 64, 65, 4097)] == [
        8, 8, 8, 16, 16, 32, 64, 128, 8192,
    ]


# --------------------------------------------------------------------
# strides in the evaluator

_SPLIT_LEAVES = {
    Unit(): (0, 1, [0b1]),
    Counit(): (1, 0, [0b1]),
    Swap(): (2, 2, [0b1001, 0b0110, 0b0110, 0b1001]),
    H(): (2, 2, [0b1111, 0b1010, 0b1111, 0b1010]),
    HBar(): (2, 2, [0b1111] * 4),
}


def _oracle_leaf(t, category):
    if category is not Category.RB:
        if isinstance(t, Id):
            return t.n, t.n, [1 << i | 1 << (t.n + i) for i in range(t.n)] * 2
        return _SPLIT_LEAVES[t]
    match t:
        case Id(n):
            return n, n, [1 << i for i in range(n)]
        case NablaK(k):
            return 2 * k, k, [1 << i for i in range(k)] * 2
        case DeltaK(k):
            return k, 2 * k, [1 << i | 1 << (k + i) for i in range(k)]
        case UnitK(k):
            return 0, k, []
        case CounitK(k):
            return k, 0, [0] * k


def _oracle_rows(t, category):
    # the evaluator on row lists, composing through the row-list kernels
    if isinstance(t, Pad):
        t = Comp(t, Id(t.left + _oracle_rows(t.body, category)[0] + t.right))
    if not isinstance(t, Comp):
        return _oracle_leaf(t, category)
    before = _oracle_rows(t.before, category)
    after = t.after
    left, body, right = 0, after, 0
    if isinstance(after, Pad):
        left, body, right = after.left, after.body, after.right
    body = _oracle_rows(body, category)
    if category is Category.RB:
        return rel_then_padded_oracle(before, left, body, right)
    n, mid, p_rows = before
    a, b, q_rows = body
    k = left + b + right
    vias = range(n + left, n + left + a)
    return n, k, compose_rows_oracle(n, mid, k, p_rows, q_rows, vias, left, right)


def _strides_along(t, category):
    memo = {}
    _walk(t, _MODELS[category], memo)
    return sorted({value[2] for _, value in memo.values()})


def _widening(width, bridge=H()):
    # h, then one fresh point at a time up to `width`, then back down
    t = bridge
    for k in range(2, width):
        t = Comp(pad(k, Unit(), 0), t)
    for k in range(width - 1, 1, -1):
        t = Comp(pad(k, Counit(), 0), t)
    return t


def test_a_spine_that_widens_mid_walk_agrees_with_the_row_lists():
    for text in ("zero(2, 40)", "zero(40, 2)", "pad(1, zero(2, 40), 3) . pad(1, h, 3)"):
        t = parse(text, Category.PF)
        assert _rows(t, Category.PF, {}) == _oracle_rows(t, Category.PF), text
    t = _widening(70)
    assert _strides_along(t, Category.PF) == [8, 16, 32, 64, 128]
    assert _rows(t, Category.PF, {}) == _oracle_rows(t, Category.PF)
    # RB: id(62) at stride 64 widens to 66 targets, re-strided to 128
    t = parse(" . ".join(f"pad(0, delta(1), {r})" for r in range(64, 60, -1)), "RB")
    assert _strides_along(t, Category.RB) == [8, 64, 128]
    assert _rows(t, Category.RB, {}) == _oracle_rows(t, Category.RB)


def test_a_narrow_chain_under_a_wide_pad_agrees_with_the_row_lists():
    texts = {
        Category.PF: "pad(30, pad(0, h, 1) . pad(1, swap, 0) . pad(0, h, 1), 33)",
        Category.EF: "pad(30, pad(0, hbar, 1) . pad(1, swap, 0) . pad(0, hbar, 1), 33)",
        Category.RB: "pad(5, nabla(1) . delta(1), 60) . pad(0, delta(1), 64)",
    }
    for category, text in texts.items():
        t = parse(f"{text} . pad(0, swap, {64 - (category is Category.RB)})", category)
        assert _rows(t, category, {}) == _oracle_rows(t, category)
        strides = _strides_along(t, category)
        assert strides[0] == 8 and strides[-1] >= 128  # the narrow body's own


def test_eq_through_one_memo_compares_values_of_different_strides():
    f, g = H(), _widening(40)
    memo = {}
    assert _same_value(f, g, Category.PF, memo)
    # the two values are held at different strides, yet compare equal
    assert memo[f][1][2] == 8
    assert _walk(g, _MODELS[Category.PF], memo)[1][2] == 64
    assert not _same_value(Swap(), g, Category.PF, memo)
    assert _same_value(HBar(), _widening(40, HBar()), Category.EF, {})


def test_a_dropped_spine_value_is_rebuilt_when_a_later_term_extends_it():
    # at 300 points a side a split value (600 rows at stride 1,024) is
    # wider than _ONES_CACHE_BYTES, so the spine drops it once past it
    width, pf = 300, Category.PF
    factors = [pad(k, H(), width - 2 - k) for k in (0, 5, 9, 150)]
    memo = {}
    assert _rows(compose_chain(factors, width), pf, memo) == _oracle_rows(
        compose_chain(factors, width), pf
    )
    keys = list(memo)
    dropped = [key for key, (_, value) in memo.items() if value is None]
    # the first three compositions are superseded; the result is kept
    assert len(dropped) == 3 and memo[keys[-1]][1] is not None
    for key in dropped:
        assert memo[key] == (keys.index(key), None)
    # a term that extends the second dropped prefix rebuilds it
    extended = compose_chain(factors[:2] + [pad(200, Swap(), width - 202)], width)
    assert _rows(extended, pf, memo) == _oracle_rows(extended, pf)
    assert len(memo) == len(keys) + 2  # the swap leaf and one composition
    assert memo[dropped[1]][1] is None  # dropped again, once passed
    # a term that ends on a dropped prefix reads it back
    prefix = compose_chain(factors[:3], width)
    assert _rows(prefix, pf, memo) == _oracle_rows(prefix, pf)
    assert memo[dropped[2]][1] is not None and len(memo) == len(keys) + 2


def test_a_wide_zero_keeps_only_the_values_it_can_reuse():
    # each of the 1,024 spine values of zero(512, 512) is wider than
    # _ONES_CACHE_BYTES; a walk that keeps them all peaks at about 100 MiB
    t = zero_term(512, 512)
    tracemalloc.start()
    try:
        n, m, rows = _rows(t, Category.PF, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert (n, m) == (512, 512)
    assert rows == [1 << i for i in range(1024)]


def test_no_wide_ones_mask_outlives_its_call(capsys):
    relations._ones.clear()
    assert cli.main(["eval", "--format", "json", "pad(4094, h, 0)"]) == 0
    capsys.readouterr()
    # the matrix of 8,194 rows at stride 16,384 needs a 16 MiB mask
    kept = relations._ones
    assert kept and all(count * stride // 8 <= relations._ONES_CACHE_BYTES
                        for count, stride in kept)


def test_ones_masks_are_kept_up_to_a_bound():
    relations._ones.clear()
    for count in range(1, 100):
        ones = relations._ones[count, 8]
        assert ones == sum(1 << 8 * row for row in range(count))
    assert 0 < len(relations._ones) <= 64
