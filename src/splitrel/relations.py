"""Split relations between finite ordinals and their composition.

A split relation from n to m is a set of ordered pairs over two disjoint
copies of finite ordinals: n source points and m target points.  A split
preorder is a reflexive, transitive split relation; a split equivalence
is additionally symmetric.  Composition glues the target copy of one
relation to the source copy of the next, closes transitively, and
deletes the shared middle layer.

Everything here is immutable and pure.  Pair sets compare extensionally,
so `SplitPreorder` and `SplitEquivalence` are aliases of
`SplitRelation`; use `is_preorder` / `is_equivalence` to check the
defining invariants.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Final, Iterable, Literal, NamedTuple, Sequence

Tag = Literal["s", "t"]

SRC: Final[Tag] = "s"
TGT: Final[Tag] = "t"


class Node(NamedTuple):
    """One point of the disjoint union; sorts source-first, then by position."""

    tag: Tag
    pos: int


def src(i: int) -> Node:
    return Node(SRC, i)


def tgt(j: int) -> Node:
    return Node(TGT, j)


Pair = tuple[Node, Node]


def _coerce_pairs(pairs: Iterable) -> frozenset[Pair]:
    return frozenset((Node(*x), Node(*y)) for (x, y) in pairs)


@dataclass(frozen=True)
class SplitRelation:
    """A set of ordered pairs over n source and m target points."""

    n: int
    m: int
    pairs: frozenset[Pair] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", _coerce_pairs(self.pairs))
        if self.n < 0 or self.m < 0:
            raise ValueError(f"negative size in {self.n}->{self.m}")
        for pair in self.pairs:
            for node in pair:
                if node.tag not in (SRC, TGT):
                    raise ValueError(f"bad tag in node {node!r}")
                bound = self.n if node.tag == SRC else self.m
                if not 0 <= node.pos < bound:
                    raise ValueError(
                        f"node {node!r} out of bounds for type "
                        f"{self.n}->{self.m}"
                    )

    def nodes(self) -> list[Node]:
        """All points of the ambient type, in canonical order."""
        return [src(i) for i in range(self.n)] + [tgt(j) for j in range(self.m)]

    def is_reflexive(self) -> bool:
        return all((x, x) in self.pairs for x in self.nodes())

    def is_transitive(self) -> bool:
        by_first: dict[Node, set[Node]] = {}
        for x, y in self.pairs:
            by_first.setdefault(x, set()).add(y)
        return all(
            (x, z) in self.pairs
            for (x, y) in self.pairs
            for z in by_first.get(y, ())
        )

    def is_symmetric(self) -> bool:
        return all((y, x) in self.pairs for (x, y) in self.pairs)

    def is_preorder(self) -> bool:
        return self.is_reflexive() and self.is_transitive()

    def is_equivalence(self) -> bool:
        return self.is_preorder() and self.is_symmetric()

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "pairs": [[list(x), list(y)] for (x, y) in sorted(self.pairs)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SplitRelation":
        obj = json.loads(text)
        return cls(
            obj["n"],
            obj["m"],
            frozenset(
                (Node(x[0], x[1]), Node(y[0], y[1])) for (x, y) in obj["pairs"]
            ),
        )


# Refinements of SplitRelation; invariants checked by is_preorder /
# is_equivalence, not by the type system.
SplitPreorder = SplitRelation
SplitEquivalence = SplitRelation


@dataclass(frozen=True)
class BinRel:
    """A plain binary relation between the ordinals n and m."""

    n: int
    m: int
    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pairs", frozenset((int(i), int(j)) for (i, j) in self.pairs)
        )
        if self.n < 0 or self.m < 0:
            raise ValueError(f"negative size in {self.n}->{self.m}")
        for i, j in self.pairs:
            if not (0 <= i < self.n and 0 <= j < self.m):
                raise ValueError(
                    f"pair ({i},{j}) out of bounds for type {self.n}->{self.m}"
                )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "pairs": [list(p) for p in sorted(self.pairs)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "BinRel":
        obj = json.loads(text)
        return cls(obj["n"], obj["m"], frozenset(map(tuple, obj["pairs"])))


# --------------------------------------------------------------------
# row machinery: one bitmask row per point of a flat index space, the
# n sources first and then the m targets (the indexing EtaNF uses)


def _closed(rows: list[int], vias: Iterable[int]) -> list[int]:
    # Warshall sweep through the points in `vias`; adds exactly the pairs
    # reachable by chains whose inner points all lie in `vias`.
    for via in vias:
        vrow = rows[via]
        bit = 1 << via
        rows = [row | vrow if row & bit else row for row in rows]
    return rows


def _rows_of(r: SplitRelation) -> list[int]:
    rows = [0] * (r.n + r.m)
    for x, y in r.pairs:
        rows[x.pos if x.tag == SRC else r.n + x.pos] |= 1 << (
            y.pos if y.tag == SRC else r.n + y.pos
        )
    return rows


def split_from_rows(n: int, m: int, rows: Iterable[int]) -> SplitRelation:
    """The split relation whose flat row i holds the successors of point i."""
    nodes = [src(i) for i in range(n)] + [tgt(j) for j in range(m)]
    return SplitRelation(
        n,
        m,
        frozenset(
            (nodes[i], nodes[j])
            for i, row in enumerate(rows)
            for j in range(n + m)
            if row >> j & 1
        ),
    )


def compose_rows(
    n: int,
    mid: int,
    k: int,
    p_rows: Sequence[int],
    q_rows: Sequence[int],
    vias: Iterable[int] | None = None,
    left: int = 0,
    right: int = 0,
) -> list[int]:
    """Rows of p : n->mid composed with q : mid->k, over n + k points.

    q is the padding of a body a->b by `left` and `right` identity
    strands (none by default), and `q_rows` are the body's rows:
    a = mid - left - right, b = k - left - right.  The body's source
    copy is glued onto p's target copy at n+left..n+left+a-1 and its
    targets follow p's points; the result is closed through `vias`
    (every point by default), and the body's sources are cut out.  An
    identity strand only renames a point, so p's middle point stands for
    the strand's target and the padded rows are never built; this needs
    p reflexive on the strands, which holds for every preorder.

    When both factors are transitive a chain through the glued relation
    changes factor only at a glued point.  A strand's middle point lies
    in p alone, so transitivity of p removes it from any chain, and
    closing through the body's sources alone,
    ``range(n + left, n + mid - right)``, is enough.
    """
    a, b = mid - left - right, k - left - right
    # the body's sources sit at body..tail-1, its targets from cut on
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


# --------------------------------------------------------------------
# operations


def domain_of(r: SplitRelation) -> frozenset[Node]:
    """All points that occur in some pair of `r`, on either side."""
    return frozenset(x for pair in r.pairs for x in pair)


def transitive_closure(p: SplitRelation) -> SplitPreorder:
    """Least transitive superset of `p`; its domain equals `p`'s domain."""
    return split_from_rows(p.n, p.m, _closed(_rows_of(p), range(p.n + p.m)))


def bar_union(p: SplitRelation, q: SplitRelation) -> SplitPreorder:
    """Transitive closure of the union (the composition workhorse)."""
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError(
            f"cannot unite {p.n}->{p.m} with {q.n}->{q.m}"
        )
    return transitive_closure(SplitRelation(p.n, p.m, p.pairs | q.pairs))


def restrict_away(r: SplitRelation, x: Iterable[Node]) -> SplitRelation:
    """Drop every pair that touches a point of `x`."""
    banned = frozenset(Node(*v) for v in x)
    return SplitRelation(
        r.n,
        r.m,
        frozenset((a, b) for (a, b) in r.pairs if a not in banned and b not in banned),
    )


def compose_split(p: SplitPreorder, q: SplitPreorder) -> SplitPreorder:
    """Compose p : n->m with q : m->k by gluing, closing, and deleting.

    The shared middle copy lives at an internal index band that never
    appears in the result.  Restriction of a transitive relation is
    transitive, so the output is again a split preorder whenever the
    inputs are.

    Any split relations are accepted, transitive or not, so the glued
    relation is closed through every point.  The work happens on bit
    rows (`compose_rows`); the `Node`-pair view is rebuilt for the
    result.  Term evaluation does not come through here: it composes
    rows directly and builds pairs only for the final value.
    """
    if p.m != q.n:
        raise ValueError(
            f"cannot compose {p.n}->{p.m} with {q.n}->{q.m}: middle sizes differ"
        )
    rows = compose_rows(p.n, p.m, q.m, _rows_of(p), _rows_of(q))
    return split_from_rows(p.n, q.m, rows)


def identity_split(n: int) -> SplitEquivalence:
    """Each source point doubly linked with its target copy."""
    pairs = set()
    for i in range(n):
        pairs.update(
            {
                (src(i), src(i)),
                (tgt(i), tgt(i)),
                (src(i), tgt(i)),
                (tgt(i), src(i)),
            }
        )
    return SplitRelation(n, n, frozenset(pairs))


def _all_loops(n: int, m: int) -> frozenset[Pair]:
    return frozenset(
        [(src(i), src(i)) for i in range(n)] + [(tgt(j), tgt(j)) for j in range(m)]
    )


def embed_relation(r: BinRel) -> SplitPreorder:
    """Downward image of a plain relation: loops plus source-to-target pairs.

    Injective and composition-preserving, but the identity relation maps
    to the down-only strands, not to the identity split preorder, so the
    embedding is a semi-functor.
    """
    pairs = _all_loops(r.n, r.m) | frozenset(
        (src(a), tgt(b)) for (a, b) in r.pairs
    )
    return SplitRelation(r.n, r.m, pairs)


def embed_function(f: BinRel) -> SplitEquivalence:
    """Equivalence whose classes are one value with all of its arguments."""
    mapping: dict[int, int] = {}
    for a, b in f.pairs:
        if a in mapping:
            raise ValueError(f"not single-valued at {a}")
        mapping[a] = b
    if len(mapping) != f.n:
        raise ValueError("not total")
    classes: dict[int, list[Node]] = {b: [tgt(b)] for b in range(f.m)}
    for a, b in mapping.items():
        classes[b].append(src(a))
    pairs = frozenset(
        (x, y) for members in classes.values() for x in members for y in members
    )
    return SplitRelation(f.n, f.m, pairs)


def compose_rel(r: BinRel, s: BinRel) -> BinRel:
    """Ordinary relational composition, r first."""
    if r.m != s.n:
        raise ValueError(
            f"cannot compose {r.n}->{r.m} with {s.n}->{s.m}: middle sizes differ"
        )
    by_first: dict[int, set[int]] = {}
    for b, c in s.pairs:
        by_first.setdefault(b, set()).add(c)
    return BinRel(
        r.n,
        s.m,
        frozenset((a, c) for (a, b) in r.pairs for c in by_first.get(b, ())),
    )


def strict_part(p: SplitPreorder) -> SplitRelation:
    """The preorder with its diagonal removed; satisfies strict transitivity."""
    return SplitRelation(
        p.n, p.m, frozenset((x, y) for (x, y) in p.pairs if x != y)
    )


def semi_embed_M(p: SplitPreorder) -> SplitPreorder:
    """Prepend a fresh strand carrying only its downward pair.

    Defined only on images of `embed_relation` (loops plus purely
    source-to-target pairs); realizes the add-a-strand endofunctor on
    the embedded copy of plain relations.
    """
    strict = strict_part(p).pairs
    looks_embedded = p.is_reflexive() and all(
        x.tag == SRC and y.tag == TGT for (x, y) in strict
    )
    if not looks_embedded:
        raise ValueError("input is not the embedding of a plain relation")
    shifted = frozenset((src(x.pos + 1), tgt(y.pos + 1)) for (x, y) in strict)
    pairs = _all_loops(p.n + 1, p.m + 1) | shifted | {(src(0), tgt(0))}
    return SplitRelation(p.n + 1, p.m + 1, pairs)
