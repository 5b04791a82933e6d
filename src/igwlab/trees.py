"""Finite rooted metric trees as parallel numpy arrays.

A tree is stored breadth-first: vertex 0 is the root, ``parent[i] < i`` for
every non-root vertex, and vertices of equal depth are contiguous
(``gen_starts`` records the level boundaries, and every tree is built with
them).  ``length[i]`` is the length of the edge joining ``i`` to its
parent; ``length[0]`` is unused and zero.  The empty tree is the single
root vertex with no edges.  A :class:`Forest` lays a chunk of trees out the
same way, level by level across its trees.  One routine, ``_by_level``,
puts columns given in any order into this layout: a list of trees, the
pruning engine's reduced trees, the Newick reader's preorder and a parent
array handed in from outside.

Conventions
-----------
* *Planted*: the root has exactly one child; its edge is the stem.  Random
  trees produced by the sampler are always planted (or empty).  Vertex-rooted
  descendant subtrees may be *stemless* (root degree >= 2); operations accept
  both, and the Horton-Strahler order follows the stemless adjustment.
* *Reduced*: no non-root vertex has exactly one child.  Unreduced trees can
  be represented (they are the inputs of :func:`series_reduce`) and are
  flagged by :attr:`~CombinatorialTree.is_reduced`.
* Shape identity is isomorphism of unordered rooted trees; sibling order is
  meaningless and :meth:`~CombinatorialTree.canonical_code` is the
  canonical witness.
* *Canonical order*: a leaf's code is ``()`` and any other vertex's code is
  ``(``, its children's codes in canonical order, ``)``.  Siblings sort by
  (code length, code bytes); in a metric tree, siblings of equal code then
  sort by the edge lengths of their subtrees in canonical preorder, compared
  as tuples.  Siblings equal in both are identical subtrees.  The Newick
  writer and :func:`almost_isometric` follow this order.

Trees are immutable after construction (arrays are write-protected) and all
operations are pure, so instances are safe to share across threads.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "CombinatorialTree",
    "MetricTree",
    "Forest",
    "TreePoint",
    "series_reduce",
    "descendant_subtree",
    "almost_isometric",
]


# --------------------------------------------------------------------- #
# Point addressing                                                       #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TreePoint:
    """A point of a metric tree: a vertex, or a location inside an edge.

    ``edge`` is the child-vertex id naming the edge (or the vertex id when
    ``offset`` is None).  ``offset`` is the distance from the parent-side
    endpoint, in [0, edge length].  Offsets 0 and ``edge length`` collapse to
    the corresponding vertex.
    """

    edge: int
    offset: float | None = None

    @staticmethod
    def vertex(v: int) -> "TreePoint":
        return TreePoint(v, None)

    @staticmethod
    def on_edge(child: int, offset: float) -> "TreePoint":
        return TreePoint(child, float(offset))


# --------------------------------------------------------------------- #
# Core classes                                                           #
# --------------------------------------------------------------------- #


class CombinatorialTree:
    """Finite unlabeled rooted tree, shape only (edge lengths dropped)."""

    __slots__ = ("parent", "_gen_starts", "_nchild", "_code")

    def __init__(self, parent, *, validate: bool = True, gen_starts=None):
        parent = np.ascontiguousarray(parent, dtype=np.int32)
        if validate:  # the ordering may change
            parent, _, gen_starts = _bfs_normalize(parent)
        self.parent = parent
        self.parent.setflags(write=False)
        self._gen_starts = np.ascontiguousarray(gen_starts, dtype=np.int64)
        self._gen_starts.setflags(write=False)
        self._nchild = None
        self._code = None

    # -- basic counts ---------------------------------------------------- #

    @property
    def n_vertices(self) -> int:
        return self.parent.shape[0]

    @property
    def n_edges(self) -> int:
        return self.parent.shape[0] - 1

    @property
    def is_empty(self) -> bool:
        return self.parent.shape[0] == 1

    def children_counts(self) -> np.ndarray:
        if self._nchild is None:
            nc = np.bincount(self.parent[1:], minlength=self.n_vertices).astype(np.int32)
            nc.setflags(write=False)
            self._nchild = nc
        return self._nchild

    @property
    def is_planted(self) -> bool:
        return self.is_empty or self.children_counts()[0] == 1

    @property
    def is_reduced(self) -> bool:
        nc = self.children_counts()
        return not (nc[1:] == 1).any()

    def leaf_count(self) -> int:
        if self.is_empty:
            return 0
        return int(np.count_nonzero(self.children_counts() == 0))

    # -- structure helpers ------------------------------------------------ #

    def gen_starts(self) -> np.ndarray:
        """Offsets of BFS levels: vertices of depth g are gen[g]:gen[g+1]."""
        return self._gen_starts

    # -- shape identity ---------------------------------------------------- #

    def canonical_code(self) -> bytes:
        """AHU-style code in canonical order (module docstring); equal
        codes iff trees are isomorphic.  A k-edge subtree's code has 2k + 2
        bytes, so ordering by code length is ordering by edge count."""
        if self._code is None:
            self._code = _canonical_sweep(self)[0]
        return self._code

    def horton_strahler_order(self) -> int:
        return _horton_order(self)

    def __eq__(self, other):
        if not isinstance(other, CombinatorialTree) or isinstance(other, MetricTree) != isinstance(self, MetricTree):
            return NotImplemented
        return self.canonical_code() == other.canonical_code()

    def __hash__(self):
        return hash(self.canonical_code())

    def __repr__(self):
        return f"{type(self).__name__}(vertices={self.n_vertices}, edges={self.n_edges})"

    @staticmethod
    def empty() -> "CombinatorialTree":
        return CombinatorialTree(np.array([-1], dtype=np.int32), validate=False,
                                 gen_starts=[0, 1])


class MetricTree(CombinatorialTree):
    """Rooted tree with strictly positive real edge lengths."""

    __slots__ = ("length",)

    def __init__(self, parent, length, *, validate: bool = True, gen_starts=None):
        parent = np.ascontiguousarray(parent, dtype=np.int32)
        length = np.ascontiguousarray(length, dtype=np.float64)
        if parent.shape != length.shape:
            raise ValueError("parent and length arrays must have equal shape")
        if validate:
            parent, order, gen_starts = _bfs_normalize(parent)
            length = length[order]
            if not ((0.0 < length[1:]) & (length[1:] < np.inf)).all():
                raise ValueError("edge lengths must be finite and > 0")
        length[0] = 0.0
        CombinatorialTree.__init__(self, parent, validate=False, gen_starts=gen_starts)
        self.length = length
        self.length.setflags(write=False)

    def shape(self) -> CombinatorialTree:
        return CombinatorialTree(self.parent, validate=False, gen_starts=self._gen_starts)

    def depths(self) -> np.ndarray:
        """Distance from the root to every vertex."""
        d = self.length.copy()
        gs = self.gen_starts()
        for g in range(2, len(gs) - 1):
            seg = slice(gs[g], gs[g + 1])
            d[seg] += d[self.parent[seg]]
        return d

    def tree_height(self) -> float:
        if self.is_empty:
            return 0.0
        return float(self.depths().max())

    def tree_length(self) -> float:
        return float(self.length[1:].sum())

    def __eq__(self, other):
        if not isinstance(other, MetricTree):
            return NotImplemented
        return almost_isometric(self, other, atol=0.0)

    def __hash__(self):
        return hash(self.canonical_code())

    @staticmethod
    def empty() -> "MetricTree":
        return MetricTree(np.array([-1], dtype=np.int32), np.array([0.0]), validate=False,
                          gen_starts=[0, 1])


class Forest(Sequence):
    """The live trees of a chunk as one set of columns, laid out by level.

    Level 0 holds the roots of the R live trees in chunk order; every
    later level is sorted by tree, then by breadth-first id within the
    tree, so parents never decrease along a level and the children of a
    vertex are a contiguous run of the next level.  This is the order in
    which the sampler generates vertices, and the order the pruning
    engine sweeps.  Columns, one entry per vertex:

    * ``parent``: position of the parent (int64); each root points at itself;
    * ``length``: length of the edge above the vertex (0 at roots, and
      everywhere for shape-only forests);
    * ``tree``: rank of the vertex's tree among the live trees;

    plus ``level_starts`` (level g is ``level_starts[g]:level_starts[g+1]``),
    ``slots`` (the chunk position of each live tree) and the chunk's
    ``censored`` mask; ``first`` (per tree, the position of its vertex of
    breadth-first id 1) is read off the layout.  Roots are positions ``0..R-1``; in a planted
    forest, such as every sampled one, the stems' upper vertices follow as
    ``R..2R-1``.

    As a read-only sequence the forest is the chunk: ``forest[i]`` builds
    the tree in chunk slot ``i`` (None for a censored slot); for a sampled
    chunk it is bit for bit the scalar reference sampler's tree.
    """

    def __init__(self, parent, length, tree, level_starts, slots, censored,
                 metric: bool, *, nchild=None):
        self.parent = parent
        self.length = length
        self.tree = tree
        self.level_starts = level_starts
        self.slots = slots
        self.censored = censored
        self.metric = metric
        self.R = len(slots)     # live trees
        self.V = len(parent)    # vertices
        if nchild is not None:
            self.nchild = nchild

    @classmethod
    def from_rows(cls, censored, rows, metric: bool) -> "Forest":
        """Build from the sampler's per-level rows ``(slot, parent_pos,
        edge_length)``, where ``parent_pos`` indexes the previous level
        and level 0 is one root per chunk slot.  Rows of censored slots
        are dropped."""
        n = len(censored)
        sizes = [n] + [len(r[0]) for r in rows]
        starts = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        slot = np.concatenate([np.arange(n, dtype=np.int64)] + [r[0] for r in rows])
        parent = np.concatenate([np.arange(n, dtype=np.int64)]
                                + [r[1] + starts[g] for g, r in enumerate(rows)])
        if metric:
            length = np.concatenate([np.zeros(n)] + [r[2] for r in rows])
        live_rank = np.cumsum(~censored) - 1
        if censored.any():
            keep = ~censored[slot]
            kept = np.cumsum(keep)
            parent = (kept - 1)[parent[keep]]
            slot = slot[keep]
            if metric:
                length = length[keep]
            ends = kept[starts[1:] - 1]
            nlev = int(np.count_nonzero(np.diff(ends, prepend=0)))
            level_starts = np.concatenate(([0], ends[:nlev]))
        else:
            level_starts = starts
        if not metric:
            length = np.zeros(len(parent))
        slots = np.flatnonzero(~censored)
        return cls(parent, length, live_rank[slot], level_starts, slots, censored, metric)

    @classmethod
    def from_trees(cls, trees) -> "Forest":
        """Lay out a list of trees (None for a censored slot).  Empty trees
        count as neither live nor censored."""
        trees = list(trees)
        censored = np.array([t is None for t in trees], dtype=bool)
        slots = np.array([i for i, t in enumerate(trees) if t is not None and not t.is_empty],
                         dtype=np.int64)
        live = [trees[i] for i in slots]
        metric = isinstance(next((t for t in trees if t is not None), None), MetricTree)
        if len(live) == 1:
            # one tree is already laid out by level: no sort
            t = live[0]
            V = t.n_vertices
            parent = t.parent.astype(np.int64)
            parent[0] = 0
            return cls(parent, t.length if metric else np.zeros(V),
                       np.zeros(V, dtype=np.int64), t.gen_starts(), slots, censored,
                       metric, nchild=t.children_counts().astype(np.int64))
        ns = np.array([t.n_vertices for t in live], dtype=np.int64)
        off = np.cumsum(ns) - ns   # each tree's root, the trees one after another
        ints = [np.zeros(0, dtype=np.int64)]   # integer columns even with no live tree
        up = np.concatenate(ints + [t.parent for t in live]) + np.repeat(off, ns)
        up[off] = off
        level = np.concatenate(ints + [np.repeat(np.arange(len(gs) - 1), np.diff(gs))
                                       for gs in (t.gen_starts() for t in live)])
        order, parent, level_starts = _by_level(level, up)
        length = (np.concatenate([np.zeros(0)] + [t.length for t in live])[order] if metric
                  else np.zeros(len(order)))
        return cls(parent, length, np.repeat(np.arange(len(live)), ns)[order], level_starts,
                   slots, censored, metric)

    # -- sizes and derived columns ---------------------------------------- #

    @property
    def ngen(self) -> int:
        return len(self.level_starts) - 1

    @cached_property
    def first(self) -> np.ndarray:
        """Per tree, the position of its vertex of breadth-first id 1, the
        root's first child (parents never decrease past the roots)."""
        return self.R + np.searchsorted(self.parent[self.R:], np.arange(self.R))

    @cached_property
    def nchild(self) -> np.ndarray:
        return np.bincount(self.parent[self.R:], minlength=self.V)

    @cached_property
    def by_tree(self) -> np.ndarray:
        """Positions grouped by tree, each tree in breadth-first order."""
        return np.argsort(self.tree, kind="stable")

    @cached_property
    def off(self) -> np.ndarray:
        """Tree r is ``by_tree[off[r]:off[r+1]]``."""
        off = np.zeros(self.R + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.tree, minlength=self.R), out=off[1:])
        return off

    @cached_property
    def local_id(self) -> np.ndarray:
        """Each vertex's breadth-first id within its tree."""
        if self.R <= 1:
            return np.arange(self.V)
        lid = np.empty(self.V, dtype=np.int64)
        lid[self.by_tree] = np.arange(self.V) - np.repeat(self.off[:-1], np.diff(self.off))
        return lid

    def live(self) -> "Forest":
        """The same columns as a chunk of the R live trees, tree r in slot r."""
        R = self.R
        return Forest(self.parent, self.length, self.tree, self.level_starts,
                      np.arange(R, dtype=np.int64), np.zeros(R, dtype=bool), self.metric)

    # -- the sequence of trees --------------------------------------------- #

    def __len__(self) -> int:
        return len(self.censored)

    def __getitem__(self, i: int):
        i = range(len(self))[i]
        r = int(np.searchsorted(self.slots, i))
        if r == self.R or self.slots[r] != i:
            return self._not_live(i)
        if self.R == 1:  # the columns are the tree's breadth-first layout
            return self._build(self.parent, self.length.copy())
        idx = self.by_tree[self.off[r]: self.off[r + 1]]
        level = np.searchsorted(self.level_starts, idx, side="right") - 1
        return self._build(self.local_id[self.parent[idx]], self.length[idx], level)

    def _not_live(self, i):
        """None for a censored slot; a slot given an empty tree keeps it."""
        if self.censored[i]:
            return None
        return MetricTree.empty() if self.metric else CombinatorialTree.empty()

    def _build(self, parent, length, level=None):
        """A tree from its parents by breadth-first id, lengths and levels
        (None: the forest's own, which holds just this tree)."""
        p = parent.astype(np.int32)
        p[0] = -1
        gs = self.level_starts.copy() if level is None else np.concatenate(
            ([0], np.searchsorted(level, np.arange(1, level[-1] + 1)), [len(level)]))
        if self.metric:
            return MetricTree(p, length, validate=False, gen_starts=gs)
        return CombinatorialTree(p, validate=False, gen_starts=gs)


# --------------------------------------------------------------------- #
# Normalization and code construction                                     #
# --------------------------------------------------------------------- #


def _by_level(depth: np.ndarray, up: np.ndarray, key=None):
    """The level layout of trees given as columns: ``(order, parent,
    level_starts)``.

    Vertex i has level ``depth[i]`` and parent ``up[i]`` (an index into
    the same columns; a root points at itself).  Vertices are sorted by
    level, then by ``key`` (default: their index), so the roots come first
    in that order.  Position j of the layout holds vertex ``order[j]`` and
    its parent's position ``parent[j]``.  When some level's parents do not
    come out nondecreasing, that level is sorted by parent, keeping the key
    order among siblings, one level at a time from the top.
    """
    n = len(depth)
    order = (np.argsort(depth, kind="stable") if key is None
             else np.lexsort((key, depth)))
    level_starts = np.bincount(depth + 1, minlength=1).cumsum()
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    parent = pos[up[order]]
    R = level_starts[1] if n else 0   # the roots
    if (parent[R + 1:] < parent[R:-1]).any():
        ls = level_starts.tolist()
        for lo, hi in zip(ls[1:-1], ls[2:]):
            order[lo:hi] = seg = order[lo:hi][np.argsort(pos[up[order[lo:hi]]], kind="stable")]
            pos[seg] = np.arange(lo, hi)
        parent = pos[up[order]]
    return order, parent, level_starts


def _bfs_normalize(parent: np.ndarray):
    """Relabel vertices breadth-first; return (new_parent, old_order,
    gen_starts).

    Validates that the array encodes exactly one root and a connected
    acyclic parent structure: depths come from pointer doubling, and a
    vertex still short of the root after ``log2(n)`` doublings lies on a
    cycle.  Only parent arrays handed in from outside the package
    (``validate=True``) come through here: the sampler and
    :func:`descendant_subtree` build their trees breadth-first, and the
    pruning engine and the Newick reader call :func:`_by_level` directly.
    """
    n = parent.shape[0]
    roots = (parent < 0).nonzero()[0]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {len(roots)}")
    if (parent >= n).any():
        raise ValueError("parent index out of range")
    root = roots[0]
    up = parent.astype(np.int64)
    up[root] = root
    depth = (parent >= 0).astype(np.int64)   # the distance from each vertex to jump[v]
    jump = up
    for _ in range(n.bit_length()):
        depth += depth[jump]
        jump = jump[jump]
    if (jump != root).any():
        raise ValueError("parent structure is not a connected tree")
    order, new_parent, gen_starts = _by_level(depth, up)
    new_parent = new_parent.astype(np.int32)
    new_parent[0] = -1
    return new_parent, order, gen_starts


def _canonical_sweep(t: CombinatorialTree):
    """The canonical order (module docstring), by one bottom-up level sweep.

    Returns ``(code, starts, kids)``: the root's code, and the children of
    each vertex v in canonical order as ``kids[starts[v]:starts[v + 1]]``.
    Equal codes mean equal layouts, so comparing two equal-code subtrees'
    lengths in canonical preorder is comparing (own length, then the
    children's ranks in canonical order), where a rank is the vertex's
    dense rank by that key within its level.  Only the codes and ranks of
    the level below are held; a shape-only tree has all lengths 0.
    """
    n = t.n_vertices
    # breadth-first layout: the children of v are ids starts[v]..starts[v+1]-1
    st = array("q", accumulate(memoryview(t.children_counts()), initial=1))
    parent = memoryview(t.parent)
    length = memoryview(t.length if isinstance(t, MetricTree) else np.zeros(n))
    kids = array("q", range(n))
    gs = t.gen_starts().tolist() + [n]
    codes, ranks = [], []   # of the level below, by position in it
    for g in range(len(gs) - 3, -1, -1):
        base, end = gs[g + 1], gs[g + 2]
        # the level below in canonical order; identical siblings keep id order
        below = sorted(zip(parent[base:end], map(len, codes), codes, ranks, range(base, end)))
        kids[base:end] = array("q", [s[4] for s in below])
        codes, ranks = [s[2] for s in below], [s[3] for s in below]
        up, keys = [], []
        for v in range(gs[g], base):
            a, b = st[v] - base, st[v + 1] - base
            up.append(b"(" + b"".join(codes[a:b]) + b")")
            keys.append((length[v], *ranks[a:b]))
        rank_of = {k: r for r, k in enumerate(sorted(set(keys)))}
        codes, ranks = up, [rank_of[k] for k in keys]
    return codes[0], st, kids


def _canonical_preorder(t: CombinatorialTree):
    """``(code, pre)``: the root's code and the vertices in canonical preorder."""
    code, st, kids = _canonical_sweep(t)
    pre = array("q")
    stack = [0]
    while stack:
        v = stack.pop()
        pre.append(v)
        stack += reversed(kids[st[v]:st[v + 1]])
    return code, pre


def _horton_order(t: CombinatorialTree) -> int:
    """Horton-Strahler order; 0 for the empty tree.

    Defined through iterated leaf pruning: for a planted tree, the minimal
    number of prunings that give the empty tree; stemless trees get the
    +1 adjustment.  The vertex orders come from the pruning engine's level
    sweep of the order functional (phi = ord - 1).
    """
    if t.is_empty:
        return 0
    from .pruning import PHI_ORD

    o = PHI_ORD.vertex_values(t)
    planted = t.children_counts()[0] == 1
    return int(o[1 if planted else 0]) + 1  # planted: the stem's upper vertex


# --------------------------------------------------------------------- #
# Module-level operations                                                 #
# --------------------------------------------------------------------- #


def series_reduce(t):
    """Merge maximal chains through non-root degree-two vertices.

    Lengths of merged edges add exactly (floating-point addition of the
    chain, in root-to-leaf order).  Idempotent; preserves total length and
    height.  Works on both tree kinds; empty input returns the input.  This
    is the pruning engine's reduction with every vertex kept.
    """
    if t.is_empty or t.is_reduced:
        return t
    from .pruning import ForestReduction

    keep = np.ones(t.n_vertices, dtype=bool)
    return ForestReduction(Forest.from_trees([t]), keep).reduced()[0]


def descendant_subtree(t: MetricTree, x: TreePoint) -> MetricTree:
    """Subtree of all points descendant to ``x``, re-rooted at ``x``.

    * ``x`` = root: the whole tree.
    * ``x`` = a leaf tip: the empty tree.
    * ``x`` inside an edge: planted tree whose stem is the remaining upper
      part of that edge.
    * ``x`` = an internal vertex: stemless tree (the vertex with all of its
      descendant subtrees).

    It is cut out of the breadth-first layout as one run per level.
    """
    if not isinstance(t, MetricTree):
        raise TypeError("descendant_subtree expects a MetricTree")
    v = int(x.edge)
    if v < 0 or v >= t.n_vertices:
        raise ValueError(f"point names vertex {v}, outside the tree")
    stem = None
    if x.offset is not None:
        elen = float(t.length[v]) if v > 0 else 0.0
        if v == 0:
            raise ValueError("the root has no parent edge")
        if not (0.0 <= x.offset <= elen):
            raise ValueError(f"offset {x.offset} outside [0, {elen}]")
        if x.offset == 0.0:
            v = int(t.parent[v])          # the point is the lower endpoint
        elif x.offset < elen:
            stem = elen - x.offset
    if v == 0 and stem is None:
        return t
    nc = t.children_counts()
    if nc[v] == 0 and stem is None:
        return MetricTree.empty()
    st = np.concatenate(([1], 1 + np.cumsum(nc)))   # u's children: st[u]..st[u + 1] - 1
    lo, hi = [v], [v + 1]   # v's descendants at each level are lo[g]..hi[g] - 1
    while st[hi[-1]] > st[lo[-1]]:
        lo.append(st[lo[-1]])
        hi.append(st[hi[-1]])
    lo, size = np.array(lo), np.subtract(hi, lo)
    k = int(stem is not None)   # a stem puts the cut point above v
    gs = np.concatenate((np.arange(k + 1), k + np.cumsum(size)))
    d = lo - gs[k:-1]                 # old id - new id, level by level
    old = np.arange(k + 1, gs[-1]) + np.repeat(d[1:], size[1:])
    parent = np.concatenate((np.arange(-1, k), t.parent[old] - np.repeat(d[:-1], size[1:])))
    length = np.concatenate(([0.0] + [stem] * k, t.length[old]))
    return MetricTree(parent, length, validate=False, gen_starts=gs)


def almost_isometric(t1: MetricTree, t2: MetricTree, atol: float = 1e-9) -> bool:
    """Whether two metric trees coincide as rooted metric spaces within atol.

    Shapes must match exactly (canonical codes); edge lengths are then
    compared in canonical preorder (module docstring), so siblings of equal
    shape are paired by the order of their subtrees' lengths.  Intended for
    test-style comparisons where genuine length differences are far above
    ``atol``.
    """
    c1, p1 = _canonical_preorder(t1)
    c2, p2 = _canonical_preorder(t2)
    if c1 != c2:
        return False
    d = t1.length[np.frombuffer(p1, dtype=np.int64)] - t2.length[np.frombuffer(p2, dtype=np.int64)]
    return bool((np.abs(d) <= atol).all())
