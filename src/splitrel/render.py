"""Two-row ASCII pictures, DOT digraphs, and plain listings of values.

Pictures follow the drawing conventions of the rest of the package:
sources sit on the top line, targets on the bottom line, and (x, x)
loops are never drawn.  Same-side pairs become bracket arcs above the
source line or below the target line.  A one-directional cross pair
carries an arrowhead (``v`` pointing at the target, ``^`` pointing at
the source); a two-way link is drawn as a plain line.
"""
from __future__ import annotations

from splitrel.relations import BinRel, Node, SplitRelation

__all__ = ["ascii_picture", "dot_graph", "text_listing"]

_COL = 4
_ROWS = 3


def _interior_x(x0: int, x1: int, row: int) -> int:
    return int(x0 + (x1 - x0) * row / (_ROWS + 1) + 0.5)


def _draw_line(grid: list[dict[int, str]], x0: int, x1: int) -> None:
    prev = x0
    for row in range(1, _ROWS + 1):
        x = _interior_x(x0, x1, row)
        ch = "|" if x == prev else ("\\" if x > prev else "/")
        old = grid[row - 1].get(x)
        grid[row - 1][x] = ch if old in (None, ch) else "X"
        prev = x


def _arc_rows(arcs: list[tuple[int, int, bool]]) -> list[dict[int, str]]:
    """Pack arcs into rows; (lo, hi, ...) spans on one row never touch."""
    rows: list[dict[int, str]] = []
    spans: list[list[tuple[int, int]]] = []
    for i, j, two_way in sorted(arcs):
        lo, hi = min(i, j), max(i, j)
        slot = 0
        while slot < len(spans) and any(
            not (hi < a or b < lo) for a, b in spans[slot]
        ):
            slot += 1
        if slot == len(spans):
            spans.append([])
            rows.append({})
        spans[slot].append((lo, hi))
        row = rows[slot]
        for x in range(_COL * lo + 1, _COL * hi):
            row[x] = "-"
        row[_COL * lo] = "."
        row[_COL * hi] = "."
        if not two_way:
            row[_COL * j] = ">" if j > i else "<"
    return rows


def _render_rows(rows: list[dict[int, str]]) -> list[str]:
    out = []
    for row in rows:
        width = max(row) + 1 if row else 0
        out.append("".join(row.get(x, " ") for x in range(width)))
    return out


def _dots(count: int) -> dict[int, str]:
    return {_COL * i: "*" for i in range(count)}


def _labels(count: int) -> dict[int, str]:
    row: dict[int, str] = {}
    for i in range(count):
        for k, ch in enumerate(str(i)):
            row[_COL * i + k] = ch
    return row


def _split_picture(value: SplitRelation) -> str:
    down = set()
    up = set()
    src_arcs: list[tuple[int, int, bool]] = []
    tgt_arcs: list[tuple[int, int, bool]] = []
    pairs = value.pairs
    for x, y in pairs:
        if x == y:
            continue
        if x.tag == "s" and y.tag == "t":
            down.add((x.pos, y.pos))
        elif x.tag == "t" and y.tag == "s":
            up.add((y.pos, x.pos))
        elif x.tag == "s":
            if x.pos < y.pos or (y, x) not in pairs:
                src_arcs.append((x.pos, y.pos, (y, x) in pairs))
        else:
            if x.pos < y.pos or (y, x) not in pairs:
                tgt_arcs.append((x.pos, y.pos, (y, x) in pairs))

    interior: list[dict[int, str]] = [{} for _ in range(_ROWS)]
    for i, j in sorted(down | up):
        _draw_line(interior, _COL * i, _COL * j)
    for i, j in sorted(down - up):
        interior[_ROWS - 1][_interior_x(_COL * i, _COL * j, _ROWS)] = "v"
    for i, j in sorted(up - down):
        interior[0][_interior_x(_COL * i, _COL * j, 1)] = "^"

    rows: list[dict[int, str]] = []
    if value.n:
        rows.append(_labels(value.n))
        rows.extend(reversed(_arc_rows(src_arcs)))
        rows.append(_dots(value.n))
    rows.extend(row for row in interior if row)
    if value.m:
        rows.append(_dots(value.m))
        rows.extend(_arc_rows(tgt_arcs))
        rows.append(_labels(value.m))
    return "\n".join(_render_rows(rows))


def _binrel_picture(value: BinRel) -> str:
    interior: list[dict[int, str]] = [{} for _ in range(_ROWS)]
    for i, j in sorted(value.pairs):
        _draw_line(interior, _COL * i, _COL * j)
    for i, j in sorted(value.pairs):
        interior[_ROWS - 1][_interior_x(_COL * i, _COL * j, _ROWS)] = "v"
    rows: list[dict[int, str]] = []
    if value.n:
        rows.append(_labels(value.n))
        rows.append(_dots(value.n))
    rows.extend(row for row in interior if row)
    if value.m:
        rows.append(_dots(value.m))
        rows.append(_labels(value.m))
    return "\n".join(_render_rows(rows))


def ascii_picture(value: SplitRelation | BinRel) -> str:
    if max(value.n, value.m) == 0 and not value.pairs:
        return "(empty picture)"
    if isinstance(value, BinRel):
        return _binrel_picture(value)
    return _split_picture(value)


def _node_id(x: Node | int, side: str) -> str:
    if isinstance(x, Node):
        return f"{x.tag}{x.pos}"
    return f"{side}{x}"


def dot_graph(value: SplitRelation | BinRel) -> str:
    """Digraph with nodes s0..s{n-1}, t0..t{m-1}; one edge per drawn pair."""
    lines = ["digraph {", "  rankdir=TB;", "  node [shape=point];"]
    if value.n:
        names = "; ".join(f"s{i}" for i in range(value.n))
        lines.append(f"  {{ rank=source; {names}; }}")
    if value.m:
        names = "; ".join(f"t{j}" for j in range(value.m))
        lines.append(f"  {{ rank=sink; {names}; }}")
    for x, y in sorted(value.pairs):
        if isinstance(x, Node) and x == y:
            continue
        lines.append(f"  {_node_id(x, 's')} -> {_node_id(y, 't')};")
    lines.append("}")
    return "\n".join(lines)


def text_listing(value: SplitRelation | BinRel) -> str:
    """All pairs, loops included, one per line under an `n -> m` header."""
    lines = [f"{value.n} -> {value.m}"]
    for x, y in sorted(value.pairs):
        lines.append(f"  {_node_id(x, 's')} -> {_node_id(y, 't')}")
    return "\n".join(lines)
