"""Seeded random generation of well-typed terms, and the fuzz battery."""
from __future__ import annotations

import random

from splitrel.dsl import print_term
from splitrel.maximality import separate
from splitrel.normalform import NORMAL_FORMS
from splitrel.semantics import equal
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
    Swap,
    TermType,
    Unit,
    UnitK,
    _sum,
    pad,
)


def _leaf_pool(
    category: Category, max_arity: int
) -> list[tuple[ArrowTerm, int, int]]:
    """Each generator leaf with its source and target widths."""
    if category is Category.RB:
        pool: list[tuple[ArrowTerm, int, int]] = []
        for k in range(1, max_arity + 1):
            pool.extend(
                [
                    (NablaK(k), 2 * k, k),
                    (DeltaK(k), k, 2 * k),
                    (UnitK(k), 0, k),
                    (CounitK(k), k, 0),
                ]
            )
        return pool
    bridge: ArrowTerm = H() if category is Category.PF else HBar()
    return [(Unit(), 0, 1), (Counit(), 1, 0), (Swap(), 2, 2), (bridge, 2, 2)]


class TermSampler:
    """Draws well-typed terms of bounded depth, padding and width."""

    def __init__(
        self,
        rng: random.Random,
        category: Category,
        max_depth: int = 6,
        max_pad: int = 3,
        max_arity: int = 3,
        max_width: int = 6,
    ):
        self.rng = rng
        self.category = category
        self.max_depth = max_depth
        self.max_pad = max_pad
        self.max_width = max_width
        self.pool = _leaf_pool(category, max_arity)

    def _padded_leaf(self, src: int) -> tuple[ArrowTerm, int]:
        rng = self.rng
        cap = max(self.max_width, src)
        fits = []
        for leaf, leaf_src, leaf_tgt in self.pool:
            diff = src - leaf_src
            if not 0 <= diff <= 2 * self.max_pad:
                continue
            if diff + leaf_tgt > cap:
                continue
            fits.append((leaf, diff, leaf_tgt))
        if not fits:
            return Id(src), src
        leaf, diff, leaf_tgt = rng.choice(fits)
        left = rng.randint(max(0, diff - self.max_pad), min(self.max_pad, diff))
        return pad(left, leaf, diff - left), diff + leaf_tgt

    def _draw(self, src: int, depth: int) -> tuple[ArrowTerm, int]:
        """A term from `src` and its target width, typed as it is drawn."""
        rng = self.rng
        if depth <= 0:
            return self._padded_leaf(src) if rng.random() < 0.8 else (Id(src), src)
        roll = rng.random()
        if roll < 0.25:
            return self._padded_leaf(src)
        if roll < 0.65:
            before, mid = self._draw(src, depth - 1)
            after, tgt = self._draw(mid, depth - 1)
            return Comp(after, before), tgt
        if roll < 0.85 and src >= 1:
            cut = rng.randint(0, src)
            f, f_tgt = self._draw(cut, depth - 1)
            g, g_tgt = self._draw(src - cut, depth - 1)
            f_type, g_type = TermType(cut, f_tgt), TermType(src - cut, g_tgt)
            return _sum(f, f_type, g, g_type), f_tgt + g_tgt
        return self._padded_leaf(src)

    def _typed_term(self, depth: int | None = None) -> tuple[ArrowTerm, TermType]:
        if depth is None:
            depth = self.rng.randint(0, self.max_depth)
        src = self.rng.randint(0, min(4, self.max_width))
        t, tgt = self._draw(src, depth)
        return t, TermType(src, tgt)

    def with_source(self, src: int, depth: int) -> ArrowTerm:
        return self._draw(src, depth)[0]

    def term(self, depth: int | None = None) -> ArrowTerm:
        return self._typed_term(depth)[0]


def random_term(
    rng: random.Random,
    category: Category,
    max_depth: int = 6,
    max_pad: int = 3,
    max_arity: int = 3,
    max_width: int = 6,
) -> ArrowTerm:
    """One random well-typed term of the given category."""
    sampler = TermSampler(rng, category, max_depth, max_pad, max_arity, max_width)
    return sampler.term()


def random_term_pair(
    rng: random.Random,
    category: Category,
    max_depth: int = 6,
    max_pad: int = 3,
    max_arity: int = 3,
    max_width: int = 6,
) -> tuple[ArrowTerm, ArrowTerm]:
    """Two independent terms of the same type (resampled until types agree)."""
    sampler = TermSampler(rng, category, max_depth, max_pad, max_arity, max_width)
    f, (src, tgt) = sampler._typed_term()
    for _ in range(200):
        g, g_tgt = sampler._draw(src, rng.randint(0, max_depth))
        if g_tgt == tgt:
            return f, g
    return f, f


def _instance_rng(seed: int, index: int) -> random.Random:
    # one generator per instance, so reports do not depend on batching
    return random.Random(seed * 1_000_003 + index)


def fuzz_report(
    category: Category,
    count: int,
    seed: int,
    max_depth: int = 6,
    max_pad: int = 3,
    max_arity: int = 3,
    max_width: int = 6,
) -> dict:
    """Run the random battery and summarize it as a JSON-ready dict.

    Each instance draws a pair of same-type terms and checks three things:
    the normal form of each term reconstructs to a semantically equal term,
    semantic equality of the pair agrees with payload equality, and every
    non-equal pair can be separated with differing results.  The report is
    a pure function of the arguments.
    """
    _, to_nf, from_nf = NORMAL_FORMS[category]
    checks = {"roundtrip": 0, "agreement": 0, "separation": 0}
    equal_pairs = 0
    failures: list[dict] = []

    def fail(index: int, check: str, detail: str) -> None:
        failures.append({"index": index, "check": check, "detail": detail})

    for index in range(count):
        rng = _instance_rng(seed, index)
        f, g = random_term_pair(rng, category, max_depth, max_pad, max_arity,
                                max_width)
        payloads = []
        for side in (f, g):
            checks["roundtrip"] += 1
            nf = to_nf(side)
            payloads.append(nf)
            if not equal(from_nf(nf), side, category):
                fail(index, "roundtrip", print_term(side))
        checks["agreement"] += 1
        same = equal(f, g, category)
        if same != (payloads[0] == payloads[1]):
            fail(index, "agreement",
                 f"{print_term(f)} vs {print_term(g)}")
        if same:
            equal_pairs += 1
            continue
        checks["separation"] += 1
        try:
            witness = separate(f, g, category)
        except Exception as exc:  # totality: separation must not raise
            fail(index, "separation", f"{type(exc).__name__}: {exc}")
            continue
        if witness.results[0] == witness.results[1]:
            fail(index, "separation",
                 f"{print_term(f)} vs {print_term(g)}")

    return {
        "category": category.name,
        "seed": seed,
        "count": count,
        "max_depth": max_depth,
        "max_pad": max_pad,
        "max_arity": max_arity,
        "checks": checks,
        "equal_pairs": equal_pairs,
        "failures": failures,
        "ok": not failures,
    }
