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
`hash` compare the rows.  The constructors take pairs; `.pairs` is a
read-only view, built on first read unless the value was built from
pairs.  Set bits read in row order (`flat_pairs`) come in sorted pair
order, because sources come before targets, so the JSON form is written
straight from the rows.  Composition and closure run in one kernel on
values packed as `(n, m, stride, M)`, the rows in one int M, row r at
bits [r·stride, r·stride + stride); the public operations pack and
unpack around it.

Everything here is immutable and pure.  `SplitPreorder` and
`SplitEquivalence` are aliases of `SplitRelation`; use `is_preorder` /
`is_equivalence` to check the defining invariants.
"""
from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Final, Iterable, Literal, NamedTuple

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
        pairs = [(_json_pair(x, str), _json_pair(y, str)) for x, y in obj["pairs"]]
        return cls(obj["n"], obj["m"], pairs)


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
        return cls(obj["n"], obj["m"], [_json_pair(p, int) for p in obj["pairs"]])


def _json_pair(item, head: type) -> tuple:
    # exactly [head, int]: no third entry, and no bool or float as an int
    if type(item) is not list or list(map(type, item)) != [head, int]:
        raise ValueError(f"expected [{head.__name__}, int], got {json.dumps(item)}")
    return tuple(item)


# --------------------------------------------------------------------
# the packed kernel

_TYPECODES = {array(code).itemsize * 8: code for code in "QLIHB"}  # by row width
Packed = tuple[int, int, int, int]  # (n, m, stride, packed rows)


def stride_for(width: int) -> int:
    """The least power of two of at least 8 that holds `width` bits."""
    return max(8, 1 << (width - 1).bit_length())


def pack_rows(rows: Iterable[int], stride: int) -> int:
    """One int holding `rows` at `stride`; each row must fit the stride."""
    data = b"".join(row.to_bytes(stride // 8, "little") for row in rows)
    return int.from_bytes(data, "little")


def unpack_rows(count: int, stride: int, packed: int) -> list[int]:
    """The first `count` rows of `packed` at `stride`."""
    size = stride // 8
    data = packed.to_bytes(count * size, "little")
    if stride not in _TYPECODES:
        chunks = range(0, len(data), size)
        return [int.from_bytes(data[i : i + size], "little") for i in chunks]
    rows = array(_TYPECODES[stride], data)
    if sys.byteorder == "big":
        rows.byteswap()
    return rows.tolist()


def _restride(count: int, stride: int, packed: int, width: int) -> tuple[int, int]:
    # the stride that holds `width` bits, and the rows at it; each must fit
    new = stride_for(width)
    size, keep = stride // 8, min(stride, new) // 8
    data = packed.to_bytes(count * size, "little")
    rows = (data[i : i + keep] for i in range(0, len(data), size))
    return new, int.from_bytes(bytes(new // 8 - keep).join(rows), "little")


_ONES_CACHE_BYTES = 1 << 16  # the widest ONES mask `_ones` keeps between calls


class _Ones(dict):
    """`_ones[count, stride]`: bit 0 of each of `count` rows, where
    `(ones << w) - ones` is their low w bits.  Up to 64 masks are kept; a
    wider one serves a matrix at least as large, and is built per call."""

    def __missing__(self, key: tuple[int, int]) -> int:
        count, stride = key
        ones = int.from_bytes(b"\1".ljust(stride // 8, b"\0") * count, "little")
        if count * stride <= 8 * _ONES_CACHE_BYTES:
            if len(self) == 64:
                self.clear()
            self[key] = ones
        return ones


_ones = _Ones()


def diagonal(count: int, stride: int) -> int:
    """Bit r of row r for `count` rows, at a stride of at least `count`."""
    diag, done = 1, 1
    while done < count:
        diag |= diag << done * (stride + 1)
        done *= 2
    return diag & (1 << count * stride) - 1


def _close(packed: int, stride: int, count: int, vias: Iterable[int]) -> int:
    # Warshall sweep through the points in `vias`; adds exactly the pairs
    # reachable by chains whose inner points all lie in `vias`.  A step
    # copies row v onto every row holding bit v, marked by the selection.
    ones, full = _ones[count, stride], (1 << stride) - 1
    for via in vias:
        packed |= (packed >> via & ones) * (packed >> via * stride & full)
    return packed


def compose_rows(
    p: Packed, left: int, body: Packed, right: int, vias: Iterable[int] | None = None
) -> Packed:
    """p : n->mid composed with the body a->b padded by `left` and `right`
    identity strands, as packed values.

    The body's sources are glued onto p's targets n+left..n+left+a-1 and
    its targets follow p's points; the result is closed through `vias`
    (every point by default), and the body's sources are cut out.  A
    strand only renames a point: p's middle point stands for its target,
    which needs p reflexive on the strands, as every preorder is.  When
    both factors are transitive, closing through the body's sources,
    ``range(n + left, n + left + a)``, is enough: a chain changes factor
    only at a glued point, and p's transitivity removes a strand's middle
    point from it.  The result keeps p's stride while the n + mid + b
    glued points fit, and otherwise takes the next power of two.
    """
    n, mid, stride, rows = p
    a, b, body_stride, body_rows = body
    # the body's sources sit at at..tail-1, its targets from cut on
    at, tail, cut = n + left, n + left + a, n + mid
    if cut + b > stride:
        stride, rows = _restride(cut, stride, rows, cut + b)
    if body_stride != stride:
        _, body_rows = _restride(a + b, body_stride, body_rows, stride)
    # the body's columns, then its source rows and its target rows, glued
    ones = _ones[a + b, stride]
    glued = (body_rows & (ones << a) - ones) << at
    glued |= (body_rows >> a & (ones << b) - ones) << cut
    sources, targets = glued & (1 << a * stride) - 1, glued >> a * stride
    rows |= sources << at * stride | targets << cut * stride
    rows = _close(rows, stride, cut + b, range(cut + b) if vias is None else vias)
    # keep p's points up to the body's, then the body's targets, then the
    # right strands: first as rows, then as columns
    rows = rows & (1 << at * stride) - 1 | (
        rows >> cut * stride
        | (rows >> tail * stride & (1 << right * stride) - 1) << b * stride
    ) << at * stride
    ones = _ones[cut + b, stride]
    rows = rows & (ones << at) - ones | (
        rows >> cut & (ones << b) - ones | (rows >> tail & (ones << right) - ones) << b
    ) << at
    return n, left + b + right, stride, rows


def compose_rel_rows(r: Packed, left: int, body: Packed, right: int) -> Packed:
    """r : n->mid composed with the body a->b padded by `left` and `right`
    identity strands, as packed plain relations.  The strands' bits shift
    into place, and the sources of r holding bit `left + j` gain body row
    j by one masked multiply.  The result keeps r's stride while k fits."""
    n, mid, stride, rows = r
    a, b, body_stride, body_rows = body
    k, tail = left + b + right, left + a
    if k > stride:
        stride, rows = _restride(n, stride, rows, k)
    ones = _ones[n, stride]
    out = rows & (ones << left) - ones
    out |= (rows >> tail & (ones << right) - ones) << left + b
    for j, row in enumerate(unpack_rows(a, body_stride, body_rows), left):
        if row:
            out |= (rows >> j & ones) * (row << left)
    return n, k, stride, out


# --------------------------------------------------------------------
# operations


def domain_of(r: SplitRelation) -> frozenset[Node]:
    """All points that occur in some pair of `r`, on either side."""
    used = 0
    for i, row in enumerate(r.rows):
        if row:
            used |= 1 << i | row
    return frozenset(x for i, x in enumerate(r.nodes()) if used >> i & 1)


def _packed(r: _RowValue, width: int) -> Packed:
    stride = stride_for(width)  # one that holds `width` bits
    return r.n, r.m, stride, pack_rows(r.rows, stride)


def _closure(n: int, m: int, rows: Iterable[int]) -> SplitRelation:
    stride = stride_for(n + m)
    packed = _close(pack_rows(rows, stride), stride, n + m, range(n + m))
    return SplitRelation._of_rows(n, m, unpack_rows(n + m, stride, packed))


def transitive_closure(p: SplitRelation) -> SplitPreorder:
    """Least transitive superset of `p`; its domain equals `p`'s domain."""
    return _closure(p.n, p.m, p.rows)


def bar_union(p: SplitRelation, q: SplitRelation) -> SplitPreorder:
    """Transitive closure of the union (the composition workhorse)."""
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError(f"cannot unite {p.n}->{p.m} with {q.n}->{q.m}")
    return _closure(p.n, p.m, [a | b for a, b in zip(p.rows, q.rows)])


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
    evaluation composes the packed values of its own memo instead.
    """
    if p.m != q.n:
        raise ValueError(
            f"cannot compose {p.n}->{p.m} with {q.n}->{q.m}: middle sizes differ"
        )
    before, after = _packed(p, p.n + p.m + q.m), _packed(q, q.n + q.m)
    n, k, stride, rows = compose_rows(before, 0, after, 0)
    return SplitRelation._of_rows(n, k, unpack_rows(n + k, stride, rows))


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
    before, after = _packed(r, max(r.m, s.m)), _packed(s, s.m)
    n, k, stride, rows = compose_rel_rows(before, 0, after, 0)
    return BinRel._of_rows(n, k, unpack_rows(n, stride, rows))


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
