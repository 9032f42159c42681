"""Split relations between finite ordinals and their composition.

A split relation from n to m is a set of ordered pairs over two disjoint
copies of finite ordinals: n source points and m target points.  A split
preorder is a reflexive, transitive split relation; a split equivalence
is additionally symmetric.  Composition glues the target copy of one
relation to the source copy of the next, closes transitively, and
deletes the shared middle layer.

A value holds one bit row per point: a `SplitRelation` numbers its
points flat, the n sources and then the m targets (the indexing `EtaNF`
uses), and a `BinRel` has one row of target bits per source.  `==` and
`hash` compare the rows, and every operation here works on them.  The
constructors take pairs; `.pairs` is a read-only view, built on first
read unless the value was built from pairs.  Set bits read in row order
(`flat_pairs`) come in sorted pair order, because sources come before
targets, so the JSON form is written straight from the rows.

Everything here is immutable and pure.  `SplitPreorder` and
`SplitEquivalence` are aliases of `SplitRelation`; use `is_preorder` /
`is_equivalence` to check the defining invariants.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
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


def flat_pairs(rows: Iterable[int]) -> list[tuple[int, int]]:
    """(i, j) for each set bit j of row i, in ascending order."""
    pairs = []
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            pairs.append((i, low.bit_length() - 1))
            row ^= low
    return pairs


@dataclass(frozen=True, init=False)
class _RowValue:
    # The representation both value classes share: the sizes and the rows.
    n: int
    m: int
    rows: tuple[int, ...]

    def __init__(self, n: int, m: int, pairs: Iterable = frozenset()) -> None:
        self.__dict__.update(n=n, m=m, pairs=self._coerce(pairs))
        if n < 0 or m < 0:
            raise ValueError(f"negative size in {n}->{m}")
        self.__post_init__()  # checks the pairs and builds the rows

    @classmethod
    def _of_rows(cls, n: int, m: int, rows: Iterable[int]):
        """The value with these rows, built without a pair set."""
        value = object.__new__(cls)
        value.__dict__.update(n=n, m=m, rows=tuple(rows))
        return value

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


@dataclass(frozen=True, init=False)
class SplitRelation(_RowValue):
    """A set of ordered pairs over n source and m target points."""

    @staticmethod
    def _coerce(pairs: Iterable) -> frozenset[Pair]:
        return frozenset((Node(*x), Node(*y)) for (x, y) in pairs)

    def __post_init__(self) -> None:
        n, m = self.n, self.m
        rows = [0] * (n + m)
        for x, y in self.pairs:
            for node in (x, y):
                if node.tag not in (SRC, TGT):
                    raise ValueError(f"bad tag in node {node!r}")
                if not 0 <= node.pos < (n if node.tag == SRC else m):
                    raise ValueError(
                        f"node {node!r} out of bounds for type {n}->{m}"
                    )
            rows[x.pos + n * (x.tag == TGT)] |= 1 << (y.pos + n * (y.tag == TGT))
        self.__dict__["rows"] = tuple(rows)

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        nodes = self.nodes()
        return frozenset((nodes[i], nodes[j]) for i, j in flat_pairs(self.rows))

    def nodes(self) -> list[Node]:
        """All points of the ambient type, in canonical order."""
        return [src(i) for i in range(self.n)] + [tgt(j) for j in range(self.m)]

    def is_reflexive(self) -> bool:
        return all(row >> i & 1 for i, row in enumerate(self.rows))

    def is_transitive(self) -> bool:
        rows = self.rows
        return all(rows[i] | rows[j] == rows[i] for i, j in flat_pairs(rows))

    def is_symmetric(self) -> bool:
        rows = self.rows
        return all(rows[j] >> i & 1 for i, j in flat_pairs(rows))

    def is_preorder(self) -> bool:
        return self.is_reflexive() and self.is_transitive()

    def is_equivalence(self) -> bool:
        return self.is_preorder() and self.is_symmetric()

    def to_json_obj(self) -> dict:
        nodes = self.nodes()
        return {
            "n": self.n,
            "m": self.m,
            "pairs": [
                [list(nodes[i]), list(nodes[j])] for i, j in flat_pairs(self.rows)
            ],
        }

    @classmethod
    def from_json(cls, text: str) -> "SplitRelation":
        obj = json.loads(text)
        return cls(
            obj["n"],
            obj["m"],
            (((x[0], x[1]), (y[0], y[1])) for (x, y) in obj["pairs"]),
        )


# Refinements of SplitRelation; invariants checked by is_preorder /
# is_equivalence, not by the type system.
SplitPreorder = SplitRelation
SplitEquivalence = SplitRelation


@dataclass(frozen=True, init=False)
class BinRel(_RowValue):
    """A plain binary relation between the ordinals n and m."""

    @staticmethod
    def _coerce(pairs: Iterable) -> frozenset[tuple[int, int]]:
        return frozenset((int(i), int(j)) for (i, j) in pairs)

    def __post_init__(self) -> None:
        n, m = self.n, self.m
        rows = [0] * n
        for i, j in self.pairs:
            if not (0 <= i < n and 0 <= j < m):
                raise ValueError(f"pair ({i},{j}) out of bounds for type {n}->{m}")
            rows[i] |= 1 << j
        self.__dict__["rows"] = tuple(rows)

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(flat_pairs(self.rows))

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "pairs": [[i, j] for i, j in flat_pairs(self.rows)],
        }

    @classmethod
    def from_json(cls, text: str) -> "BinRel":
        obj = json.loads(text)
        return cls(obj["n"], obj["m"], map(tuple, obj["pairs"]))


# --------------------------------------------------------------------
# row machinery


def _closed(rows: Sequence[int], vias: Iterable[int]) -> Sequence[int]:
    # Warshall sweep through the points in `vias`; adds exactly the pairs
    # reachable by chains whose inner points all lie in `vias`.
    for via in vias:
        vrow = rows[via]
        bit = 1 << via
        rows = [row | vrow if row & bit else row for row in rows]
    return rows


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
    used = 0
    for i, row in enumerate(r.rows):
        if row:
            used |= 1 << i | row
    return frozenset(x for i, x in enumerate(r.nodes()) if used >> i & 1)


def transitive_closure(p: SplitRelation) -> SplitPreorder:
    """Least transitive superset of `p`; its domain equals `p`'s domain."""
    return SplitRelation._of_rows(p.n, p.m, _closed(p.rows, range(p.n + p.m)))


def bar_union(p: SplitRelation, q: SplitRelation) -> SplitPreorder:
    """Transitive closure of the union (the composition workhorse)."""
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError(f"cannot unite {p.n}->{p.m} with {q.n}->{q.m}")
    rows = [a | b for a, b in zip(p.rows, q.rows)]
    return SplitRelation._of_rows(p.n, p.m, _closed(rows, range(p.n + p.m)))


def restrict_away(r: SplitRelation, x: Iterable[Node]) -> SplitRelation:
    """Drop every pair that touches a point of `x`."""
    n, m = r.n, r.m
    banned = 0
    for tag, pos in x:
        if tag in (SRC, TGT) and 0 <= pos < (n if tag == SRC else m):
            banned |= 1 << (pos if tag == SRC else n + pos)
    return SplitRelation._of_rows(
        n,
        m,
        (0 if banned >> i & 1 else row & ~banned for i, row in enumerate(r.rows)),
    )


def compose_split(p: SplitPreorder, q: SplitPreorder) -> SplitPreorder:
    """Compose p : n->m with q : m->k by gluing, closing, and deleting.

    The shared middle copy lives at an internal index band that never
    appears in the result.  Restriction of a transitive relation is
    transitive, so the output is again a split preorder whenever the
    inputs are.

    Any split relations are accepted, transitive or not, so the glued
    relation is closed through every point (`compose_rows`).  Term
    evaluation does not come through here: it composes the rows of its
    own memo and builds a value only for the final result.
    """
    if p.m != q.n:
        raise ValueError(
            f"cannot compose {p.n}->{p.m} with {q.n}->{q.m}: middle sizes differ"
        )
    rows = compose_rows(p.n, p.m, q.m, p.rows, q.rows)
    return SplitRelation._of_rows(p.n, q.m, rows)


def identity_split(n: int) -> SplitEquivalence:
    """Each source point doubly linked with its target copy."""
    return SplitRelation._of_rows(
        n, n, [1 << i | 1 << (n + i) for i in range(n)] * 2
    )


def embed_relation(r: BinRel) -> SplitPreorder:
    """Downward image of a plain relation: loops plus source-to-target pairs.

    Injective and composition-preserving, but the identity relation maps
    to the down-only strands, not to the identity split preorder, so the
    embedding is a semi-functor.
    """
    n, m = r.n, r.m
    sources = [1 << i | row << n for i, row in enumerate(r.rows)]
    return SplitRelation._of_rows(n, m, sources + [1 << (n + j) for j in range(m)])


def embed_function(f: BinRel) -> SplitEquivalence:
    """Equivalence whose classes are one value with all of its arguments."""
    n, m = f.n, f.m
    for a, row in enumerate(f.rows):
        if row & (row - 1):
            raise ValueError(f"not single-valued at {a}")
    if not all(f.rows):
        raise ValueError("not total")
    images = [row.bit_length() - 1 for row in f.rows]
    classes = [1 << (n + b) for b in range(m)]
    for a, b in enumerate(images):
        classes[b] |= 1 << a
    return SplitRelation._of_rows(n, m, [classes[b] for b in images] + classes)


def compose_rel(r: BinRel, s: BinRel) -> BinRel:
    """Ordinary relational composition, r first."""
    if r.m != s.n:
        raise ValueError(
            f"cannot compose {r.n}->{r.m} with {s.n}->{s.m}: middle sizes differ"
        )
    rows = [0] * r.n
    for i, j in flat_pairs(r.rows):
        rows[i] |= s.rows[j]
    return BinRel._of_rows(r.n, s.m, rows)


def strict_part(p: SplitPreorder) -> SplitRelation:
    """The preorder with its diagonal removed; satisfies strict transitivity."""
    return SplitRelation._of_rows(
        p.n, p.m, [row & ~(1 << i) for i, row in enumerate(p.rows)]
    )


def semi_embed_M(p: SplitPreorder) -> SplitPreorder:
    """Prepend a fresh strand carrying only its downward pair.

    Defined only on images of `embed_relation` (loops plus purely
    source-to-target pairs); realizes the add-a-strand endofunctor on
    the embedded copy of plain relations.
    """
    n, m = p.n, p.m
    sources, low = p.rows[:n], (1 << n) - 1
    looks_embedded = all(
        row & low == 1 << i for i, row in enumerate(sources)
    ) and all(row == 1 << (n + j) for j, row in enumerate(p.rows[n:]))
    if not looks_embedded:
        raise ValueError("input is not the embedding of a plain relation")
    # the fresh strand is source 0 and target 0; the others move up by one
    rows = [1 | 1 << (n + 1)] + [
        1 << (i + 1) | row >> n << (n + 2) for i, row in enumerate(sources)
    ]
    targets = [1 << (n + 1 + j) for j in range(m + 1)]
    return SplitRelation._of_rows(n + 1, m + 1, rows + targets)
