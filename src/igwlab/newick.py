"""Newick serialization for unlabeled metric trees.

Trees here carry no labels, only branch lengths, so the Newick dialect is
bare: ``(:2);`` is the single edge of length 2 (the outermost parentheses
hold the root's children), ``((:1,:3):1);`` is a cherry with stem 1 and leaf
edges 1 and 3, and ``;`` alone is the empty tree.  Output lists siblings in
the canonical order of :mod:`igwlab.trees` and lengths as ``repr`` floats,
so writing preserves every bit of the lengths, isometric trees get the same
text, and round-tripping is the identity up to sibling order.  The writer
walks the canonical preorder without recursion, so it takes trees of any
depth.  The parser reads the vertices' parents, lengths and depths in
preorder and hands them to the layout routine of :mod:`igwlab.trees`,
whose stable sort by depth lays them out breadth-first (in preorder each
subtree is contiguous, so vertices of equal depth come in the order of
their parents).  It still recurses once per level, two frames deep, so
Python's recursion limit sets the deepest readable tree (about 500 levels
at the default limit of 1000): an iterative reader would change what the
benchmark's deepest trees cost.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .trees import MetricTree, _by_level, _canonical_preorder

__all__ = ["to_newick", "from_newick", "NewickError"]

_BLOCK = 4096  # pieces joined into one block of output text
# a branch length: float syntax without inf, nan or underscores
_LENGTH = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class NewickError(ValueError):
    """Malformed Newick input; ``pos`` is the offending character index."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# --------------------------------------------------------------------- #
# Writing                                                                 #
# --------------------------------------------------------------------- #


def to_newick(t: MetricTree) -> str:
    if t.is_empty:
        return ";"
    _, pre = _canonical_preorder(t)
    parent, nchild, length = (memoryview(a) for a in (t.parent, t.children_counts(), t.length))
    blocks, parts = [], ["("]
    prev = 0
    for v in pre[1:]:
        p = parent[v]
        if prev != p:
            # prev is the last leaf of v's previous sibling: close up to p
            u = parent[prev]
            while u != p:
                parts.append(f"):{length[u]!r}")
                u = parent[u]
            parts.append(",")
        parts.append("(" if nchild[v] else f":{length[v]!r}")
        prev = v
        if len(parts) >= _BLOCK:
            blocks.append("".join(parts))
            parts.clear()
    u = parent[prev]
    while u:
        parts.append(f"):{length[u]!r}")
        u = parent[u]
    parts.append(");")
    blocks.append("".join(parts))
    return "".join(blocks)


# --------------------------------------------------------------------- #
# Parsing                                                                 #
# --------------------------------------------------------------------- #


def from_newick(text: str) -> MetricTree:
    s = text.strip()
    if not s:
        raise NewickError("empty input", 0)
    if not s.endswith(";"):
        raise NewickError("missing terminating ';'", len(text) - 1)
    body = s[:-1].strip()
    cols = ([0], [0.0], [0])   # parent, length and depth of each vertex, in preorder
    if body:
        pos = _parse_children(body, 0, 0, 1, cols)
        if pos != len(body):
            raise NewickError("trailing characters after tree", pos)
    up, length, depth = (np.array(c) for c in cols)
    order, parent, gen_starts = _by_level(depth, up)
    parent[0] = -1
    return MetricTree(parent, length[order], validate=False, gen_starts=gen_starts)


def _parse_children(s: str, pos: int, parent: int, depth: int, cols) -> int:
    """Parse '(' node, ... ')' attaching nodes of ``depth`` to ``parent``."""
    if pos >= len(s) or s[pos] != "(":
        raise NewickError("expected '('", pos)
    pos += 1
    while True:
        pos = _parse_node(s, pos, parent, depth, cols)
        if pos < len(s) and s[pos] == ",":
            pos += 1
            continue
        break
    if pos >= len(s) or s[pos] != ")":
        raise NewickError("expected ')' or ','", pos)
    return pos + 1


def _parse_node(s: str, pos: int, parent: int, depth: int, cols) -> int:
    parents, lengths, depths = cols
    me = len(parents)
    parents.append(parent)
    lengths.append(0.0)
    depths.append(depth)
    if pos < len(s) and s[pos] == "(":
        pos = _parse_children(s, pos, me, depth + 1, cols)
    if pos >= len(s) or s[pos] != ":":
        raise NewickError("expected ':<branch length>'", pos)
    m = _LENGTH.match(s, pos + 1)
    if m is None:
        raise NewickError("invalid branch length", pos + 1)
    x = float(m.group())
    if not 0.0 < x < math.inf:
        raise NewickError("edge lengths must be finite and > 0", pos + 1)
    lengths[me] = x
    return m.end()
