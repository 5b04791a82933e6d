"""Newick serialization for unlabeled metric trees.

Trees here carry no labels, only branch lengths, so the Newick dialect is
bare: ``(:2);`` is the single edge of length 2 (the outermost parentheses
hold the root's children), ``((:1,:3):1);`` is a cherry with stem 1 and leaf
edges 1 and 3, and ``;`` alone is the empty tree.  Output lists siblings in
the canonical order of :mod:`igwlab.trees` and lengths as ``repr`` floats,
so writing preserves every bit of the lengths, isometric trees get the same
text, and round-tripping is the identity up to sibling order.  The writer
walks the canonical preorder without recursion, so it takes trees of any
depth; the parser recurses once per level.
"""

from __future__ import annotations

import numpy as np

from .trees import MetricTree, _canonical_preorder

__all__ = ["to_newick", "from_newick", "NewickError"]

_BLOCK = 4096  # pieces joined into one block of output text


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
    parents: list[int] = [-1]
    lengths: list[float] = [0.0]
    if body:
        pos = _parse_children(body, 0, 0, parents, lengths)
        if pos != len(body):
            raise NewickError("trailing characters after tree", pos)
    return MetricTree(np.array(parents, dtype=np.int32), np.array(lengths))


def _parse_children(s: str, pos: int, parent: int, parents, lengths) -> int:
    """Parse '(' node, ... ')' attaching nodes to ``parent``."""
    if pos >= len(s) or s[pos] != "(":
        raise NewickError("expected '('", pos)
    pos += 1
    while True:
        pos = _parse_node(s, pos, parent, parents, lengths)
        if pos < len(s) and s[pos] == ",":
            pos += 1
            continue
        break
    if pos >= len(s) or s[pos] != ")":
        raise NewickError("expected ')' or ','", pos)
    return pos + 1


def _parse_node(s: str, pos: int, parent: int, parents, lengths) -> int:
    me = len(parents)
    parents.append(parent)
    lengths.append(np.nan)
    if pos < len(s) and s[pos] == "(":
        pos = _parse_children(s, pos, me, parents, lengths)
    if pos >= len(s) or s[pos] != ":":
        raise NewickError("expected ':<branch length>'", pos)
    pos += 1
    start = pos
    while pos < len(s) and (s[pos].isdigit() or s[pos] in ".eE+-"):
        # '-' only valid inside an exponent; cheap check below
        if s[pos] in "+-" and pos > start and s[pos - 1] not in "eE":
            break
        pos += 1
    try:
        val = float(s[start:pos])
    except ValueError:
        raise NewickError("invalid branch length", start) from None
    lengths[me] = val
    return pos
