"""Exact tree reductions on metric trees.

The central operator keeps the root together with every point x whose
descendant tree scores at least the threshold under a monotone functional:

    S_t(phi, T) = {root} union {x : phi(descendant tree of x) >= t},

followed by series reduction.  Monotonicity (bigger subtrees score at least
as much) makes the kept set connected, so the operator is computable edge
by edge from one bottom-up pass of vertex values F[v] = phi(Delta_v):

* additive law (height, length): along an edge with child c the value is
  F[c] + (distance to c), growing toward the root.  An edge either survives
  whole (F[c] >= t), dies whole, or is cut at the exact point where the
  value equals t -- the new leaf sits at phi-value t, no tolerance involved.
* constant law (leaf count, Horton-Strahler order): the value is constant
  on edge interiors and jumps only at vertices, so whole edges live or die;
  the kept set is closed by keeping the upper endpoint of a surviving edge.

Threshold comparisons are closed (>= t).  Points exactly at a vertex use
the vertex's own subtree (all child edges together), which is how the
sum-type functionals can keep a vertex whose child edges all die.

One engine does every reduction on a :class:`~igwlab.trees.Forest`, the
level-by-level layout the sampler emits (a list of trees is laid out the
same way): levels are swept with segment reductions, values bottom-up and
the series reduction of the keep set top-down.  The reduced trees leave the
engine one way, as a forest in the same layout
(:meth:`ForestReduction.reduced`), so a reduced chunk can be reduced again.
The per-tree functions are one-tree calls of it and read slot 0 of that
forest.  Horton pruning removes all leaves; Bernoulli leaf
coloring keeps the subtree spanning the root and a random leaf subset.
Hereditary reduction takes an arbitrary predicate: vertices are decided
exactly and edge cuts by bisection on descendant trees, independently of
the engine's values.  All operations are pure; coloring takes an explicit
stream or seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .rng import CounterStream
from .trees import (
    Forest,
    MetricTree,
    TreePoint,
    descendant_subtree,
)

__all__ = [
    "PhiFunctional",
    "PHI_HEIGHT",
    "PHI_LENGTH",
    "PHI_LEAVES",
    "PHI_ORD",
    "phi_by_name",
    "PrunedResult",
    "NonHereditaryError",
    "gdp_prune",
    "horton_prune",
    "hereditary_reduce",
    "bernoulli_color",
    "semigroup_check",
    "survival_statistic",
    "survival_statistics",
    "check_monotone",
]


# --------------------------------------------------------------------- #
# Functionals                                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PhiFunctional:
    """A builtin monotone subtree functional and its along-edge law.

    ``law`` is "additive" (the value along an edge with child c is F[c]
    plus the distance to c) or "constant" (edge interiors carry one value,
    a function of F[c]).  Values come from the forest engine's level sweep.
    """

    name: str
    law: str  # "additive" | "constant"

    def vertex_values(self, t) -> np.ndarray:
        """phi of the descendant tree of every vertex of one tree."""
        if t.is_empty:
            return np.zeros(1)
        return _forest_values(Forest.from_trees([t]), self)[0]


PHI_HEIGHT = PhiFunctional("height", "additive")
PHI_LENGTH = PhiFunctional("length", "additive")
PHI_LEAVES = PhiFunctional("leaves", "constant")
PHI_ORD = PhiFunctional("ord", "constant")

_BUILTINS = {f.name: f for f in (PHI_HEIGHT, PHI_LENGTH, PHI_LEAVES, PHI_ORD)}


def phi_by_name(name: str) -> PhiFunctional:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown functional {name!r}; choose from {sorted(_BUILTINS)}") from None


def _as_phi(phi: PhiFunctional | str) -> PhiFunctional:
    return phi_by_name(phi) if isinstance(phi, str) else phi


# --------------------------------------------------------------------- #
# The forest engine                                                       #
# --------------------------------------------------------------------- #


def _as_forest(trees) -> Forest:
    return trees if isinstance(trees, Forest) else Forest.from_trees(trees)


def _levels(fa: Forest, start: int, stop: int, step: int):
    """Slices of levels start, start + step, ... (stop excluded).

    Within a level parents never decrease, so every per-parent reduction
    is a sorted-segment ``reduceat``; the children of a vertex all live in
    the next level, so level-ordered passes finalize values in one sweep
    per direction.
    """
    ls = fa.level_starts.tolist()
    return (slice(ls[g], ls[g + 1]) for g in range(start, stop, step))


def _segments(p):
    """Starts of the runs of equal values in sorted ``p``, and the values."""
    head = np.empty(len(p), dtype=bool)
    head[:1] = True
    np.not_equal(p[1:], p[:-1], out=head[1:])
    cut = head.nonzero()[0]
    return cut, p[cut]


def _forest_values(fa: Forest, phi: PhiFunctional):
    """(F, V): phi(Delta_v) on a forest by descending BFS levels, and for a
    constant law the value on the edge above each vertex (None if additive)."""
    V, par, ln = fa.V, fa.parent, fa.length
    name = phi.name
    if name == "ord":
        # Horton-Strahler vertex orders: leaf 1, the max child order, +1
        # when at least two children attain it; phi = ord - 1
        o = np.ones(V, dtype=np.int64)
        top = np.zeros(V, dtype=np.int64)   # max child order
        tie = np.zeros(V, dtype=np.int64)   # how many children attain it
        for seg in _levels(fa, fa.ngen - 1, 0, -1):
            o[seg] = np.maximum(top[seg] + (tie[seg] >= 2), 1)
            og = o[seg]
            cut, pu = _segments(par[seg])
            omax = np.maximum.reduceat(og, cut)
            top[pu] = omax
            sizes = np.diff(np.append(cut, len(og)))
            tie[pu] = np.add.reduceat((og == np.repeat(omax, sizes)).astype(np.int64), cut)
        roots = slice(0, fa.R)
        o[roots] = top[roots] + (tie[roots] >= 2)
        F = (o - 1).astype(np.float64)
        return F, F  # the planted tree above an edge has the child's order
    F = np.zeros(V)
    for seg in _levels(fa, fa.ngen - 1, 0, -1):
        cut, pu = _segments(par[seg])
        if name == "height":
            F[pu] = np.maximum.reduceat(F[seg] + ln[seg], cut)
        elif name == "length":
            F[pu] = np.add.reduceat(F[seg] + ln[seg], cut)
        elif name == "leaves":
            contrib = np.where(fa.nchild[seg] == 0, 1.0, F[seg])
            F[pu] = np.add.reduceat(contrib, cut)
        else:
            raise ValueError(f"the engine supports the builtin functionals, not {name!r}")
    if name == "leaves":
        return F, np.maximum(F, 1.0)  # a bare edge segment has one leaf
    return F, None


class ForestReduction:
    """Keep-set reduction of a forest: the shared back half of pruning and
    coloring.

    Given per-vertex ``keep`` (in the forest's layout, roots included)
    plus optional interior cut points, computes the series-reduced
    structure: anchors (nearest reduced-tree ancestor), merged edge
    lengths, reduced depths, per-tree edge counts, survival, and the branch
    degree at the first vertex of each reduced tree.  Chain lengths add in
    root-to-leaf order.  Cut points (``cut_idx``, ``cut_piece``) are listed
    tree by tree, each tree's in breadth-first order.
    """

    def __init__(self, fa: Forest, keep, cutmask=None, cut_piece=None):
        self.fa = fa
        V, R, par, ln = fa.V, fa.R, fa.parent, fa.length
        self._keep = keep
        if cutmask is None:
            cutmask = np.zeros(V, dtype=bool)
            cut_piece = np.zeros(0)
        # kept children plus cut leaves (a cut edge's child is never kept)
        kcnt = np.bincount(par[R:][(keep | cutmask)[R:]], minlength=V)
        real = keep & (kcnt != 1)
        real[:R] = keep[:R]
        anchor = par.copy()  # level-1 vertices anchor at their root
        acc = ln.copy()
        depth = np.zeros(V, dtype=np.int32)  # reduced depth: the anchor's, plus 1
        depth[R:] = 1
        for seg in _levels(fa, 2, fa.ngen, 1):
            if not keep[seg].any():
                break  # the kept set hangs from the roots: nothing deeper
            p = par[seg]
            preal = real[p]
            anchor[seg] = np.where(preal, p, anchor[p])
            acc[seg] += np.where(preal, 0.0, acc[p])
            np.add(depth[p], preal, out=depth[seg])
        self.kcnt, self.anchor, self.acc, self._depth = kcnt, anchor, acc, depth
        cut_idx = cutmask.nonzero()[0]
        cut_tree = fa.tree[cut_idx]
        if R > 1:
            o = np.argsort(cut_tree, kind="stable")
            cut_idx, cut_tree, cut_piece = cut_idx[o], cut_tree[o], cut_piece[o]
        self.cut_idx, self.cut_slot, self.cut_piece = cut_idx, cut_tree, cut_piece
        w = par[cut_idx]
        wreal = real[w]
        self.cut_parent_red = np.where(wreal, w, anchor[w])
        self.cut_len_red = cut_piece + np.where(wreal, 0.0, acc[w])
        real[:R] = False
        self._body = real
        self.red_edges = np.bincount(fa.tree[real | cutmask], minlength=R)
        self.survived = self.red_edges > 0
        if R <= 1:  # one tree is already in its breadth-first order
            self.keep = keep

    @cached_property
    def keep(self) -> np.ndarray:
        """Per-vertex kept mask, tree by tree: tree r's vertices, in its
        breadth-first order, are ``keep[fa.off[r]:fa.off[r + 1]]``."""
        return self._keep[self.fa.by_tree]

    @cached_property
    def first_branch(self) -> np.ndarray:
        """Per live slot of a planted tree: the branch degree at the first
        vertex of the reduced tree (0 when it is a bare edge)."""
        top = (self._body & (self._depth == 1)).nonzero()[0]  # the reduced stem's upper end
        out = np.zeros(self.fa.R, dtype=np.int64)
        out[self.fa.tree[top]] = self.kcnt[top]
        return out

    def pooled_lengths(self) -> np.ndarray:
        """Edge lengths of all reduced surviving trees, pooled: every tree's
        uncut edges, tree by tree, then the cut pieces."""
        body = self._body.nonzero()[0]
        body = body[np.argsort(self.fa.tree[body], kind="stable")]
        return np.concatenate((self.acc[body], self.cut_len_red))

    def reduced(self) -> Forest:
        """The reduced trees as a chunk of the input's slots, ``censored``
        kept and an empty tree where nothing survived.  Each level is laid
        out by parent, then by the input's sibling order, a cut leaf just
        after the last child of its parent there."""
        return self._reduced

    @cached_property
    def _reduced(self) -> Forest:
        fa, survived, cuts = self.fa, self.survived, self.cut_idx
        roots = survived.nonzero()[0]  # tree r's root is position r
        R = len(roots)
        if not R:
            return Forest(roots, np.zeros(0), roots, np.zeros(1, dtype=np.int64), roots,
                          fa.censored, fa.metric)
        # the surviving roots, then the lower ends of the uncut reduced edges
        rb = np.concatenate((roots, self._body.nonzero()[0]))
        v = np.concatenate((rb, cuts))
        up = np.concatenate((self.anchor[rb], self.cut_parent_red))
        depth = self._depth[up] + 1
        depth[:R] = 0
        # sibling keys: a kept vertex's position; a cut leaf's falls just after
        # the last child of its parent (parents never decrease past the roots)
        last = fa.parent[fa.R:].searchsorted(fa.parent[cuts], side="right") + (fa.R - 1)
        o = np.lexsort((np.concatenate((2 * rb, 2 * last + 1)), depth))
        level_starts = np.concatenate(([0], np.bincount(depth).cumsum()))
        newpos = np.empty(fa.V, dtype=np.int64)
        newpos[v[o]] = np.arange(len(o))
        parent = newpos[up[o]]
        if (parent[R + 1:] < parent[R:-1]).any():  # some level's parents out of order
            ls = level_starts.tolist()
            for lo, hi in zip(ls[1:-1], ls[2:]):  # sort each level by parent
                o[lo:hi] = seg = o[lo:hi][np.argsort(newpos[up[o[lo:hi]]], kind="stable")]
                newpos[v[seg]] = np.arange(lo, hi)
            parent = newpos[up[o]]
        length = np.concatenate((self.acc[rb], self.cut_len_red))[o]
        return Forest(parent, length, newpos[fa.tree[v[o]]], level_starts, fa.slots[roots],
                      fa.censored, fa.metric)

    def extract_reduced(self, live_slot: int):
        """The reduced tree of one live slot: a slot of :meth:`reduced`."""
        return self.reduced()[int(self.fa.slots[live_slot])]


class PrunedForest(ForestReduction):
    """Generalized dynamical pruning of a whole chunk of trees (a
    :class:`~igwlab.trees.Forest` or a list of trees), plus the
    first-branch-point thinning pair (k1, m1) of planted trees: the
    children of the stem's upper vertex, and how many of their planted
    subtrees survive the pruning on their own.
    """

    def __init__(self, trees, phi: PhiFunctional | str, threshold: float):
        phi = _as_phi(phi)
        if threshold <= 0:
            raise ValueError("the forest path needs a positive threshold")
        thr = float(threshold)
        fa = _as_forest(trees)
        R = fa.R
        F, Vint = _forest_values(fa, phi)
        if phi.law == "additive":
            top = F + fa.length  # the value just below each vertex's parent
            alive = top > thr
            keep = F >= thr
            cutmask = alive & ~keep
            cutmask[:R] = False
            cut_piece = top[cutmask] - thr
        else:
            alive = Vint >= thr
            keep = alive.copy()
            cutmask = None
            cut_piece = None
        keep[:R] = True
        super().__init__(fa, keep, cutmask, cut_piece)
        alive[:R] = False
        self.alive = alive

    @property
    def k1(self) -> np.ndarray:
        return self.fa.nchild[self.fa.first]

    @property
    def m1(self) -> np.ndarray:
        fa = self.fa
        if fa.ngen < 3:
            return np.zeros(fa.R, dtype=np.int64)
        seg = slice(*fa.level_starts[2:4])  # the children of first vertices
        t = fa.tree[seg]
        kid = (fa.parent[seg] == fa.first[t]) & self.alive[seg]
        return np.bincount(t[kid], minlength=fa.R)


def _spanning_reduction(fa: Forest, chosen) -> ForestReduction:
    """Reduce each tree to the minimal subtree spanning its root and the
    chosen vertices."""
    keep = np.zeros(fa.V, dtype=bool)
    keep[chosen] = True
    for seg in _levels(fa, fa.ngen - 1, 0, -1):
        keep[fa.parent[seg][keep[seg]]] = True
    keep[:fa.R] = True
    return ForestReduction(fa, keep)


def color_forest(trees, p: float, seed: int, replicate0: int = 0,
                 domain: int = 0) -> ForestReduction:
    """Bernoulli leaf coloring of a whole chunk, one stream per tree.

    Tree i (chunk position) uses the stream (seed, replicate0 + i, domain);
    leaf number r of a tree, in its breadth-first order, consumes that
    stream's r-th uniform, exactly like feeding :func:`bernoulli_color` a
    fresh ``CounterStream`` per tree.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    fa = _as_forest(trees)
    from .rng import philox4x32, stream_keys, _to_unit

    R = fa.R
    leaves = R + np.flatnonzero(fa.nchild[R:] == 0)
    lt = fa.tree[leaves]
    if R > 1:
        o = np.argsort(lt, kind="stable")
        leaves, lt = leaves[o], lt[o]
    cut, _ = _segments(lt)
    sizes = np.diff(np.concatenate((cut, [len(leaves)])))
    rank = np.arange(len(leaves), dtype=np.int64) - np.repeat(cut, sizes)
    keys = stream_keys(seed, fa.slots[lt] + replicate0)
    w01, w23 = philox4x32(keys, (rank >> 1).astype(np.uint64), domain)
    u = np.where(rank & 1, _to_unit(w23), _to_unit(w01))
    return _spanning_reduction(fa, leaves[u < (1.0 - p)])


def survival_statistics(trees, phi: PhiFunctional | str) -> np.ndarray:
    """:func:`survival_statistic` of every tree of a chunk (0 for None)."""
    phi = _as_phi(phi)
    fa = _as_forest(trees)
    F, Vint = _forest_values(fa, phi)
    first = fa.first
    out = np.zeros(len(fa))
    out[fa.slots] = F[first] + fa.length[first] if phi.law == "additive" else Vint[first]
    return out


# --------------------------------------------------------------------- #
# Per-tree operations                                                     #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PrunedResult:
    """Series-reduced pruned tree plus diagnostics.

    ``cut_log`` lists the exact interior cut points as (edge child id,
    offset from the parent-side endpoint) in the *input* tree's labeling;
    constant-law functionals never cut interiors.  ``keep`` marks the input
    vertices that lie in the kept set (the root always does).
    """

    tree: MetricTree
    survived: bool
    cut_log: tuple = ()
    keep: np.ndarray | None = None


def gdp_prune(t: MetricTree, phi: PhiFunctional | str, threshold: float) -> PrunedResult:
    """Keep the root and all points scoring >= threshold; series-reduce."""
    phi = _as_phi(phi)
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if not isinstance(t, MetricTree):
        raise TypeError("gdp_prune operates on metric trees")
    if t.is_empty or threshold == 0.0:  # phi >= 0 everywhere
        return PrunedResult(t, not t.is_empty, keep=np.ones(t.n_vertices, dtype=bool))
    pf = PrunedForest([t], phi, threshold)
    cuts = tuple(zip(pf.cut_idx.tolist(), pf.cut_piece.tolist()))
    return PrunedResult(pf.reduced()[0], bool(pf.survived[0]), cuts, pf.keep)


def survival_statistic(t: MetricTree, phi: PhiFunctional | str) -> float:
    """sup of phi over descendant trees of points of T (the root excluded).

    The pruned tree is nonempty iff this exceeds the threshold (strictly,
    for additive laws; >= for constant laws, whose sup is attained).
    For phi = length this is total length, for phi = height the height.
    """
    return float(survival_statistics([t], phi)[0])


def horton_prune(t):
    """Remove all leaves, then series-reduce; works on both tree kinds."""
    if t.is_empty:
        return t
    keep = t.children_counts() > 0
    keep[0] = True
    return ForestReduction(Forest.from_trees([t]), keep).reduced()[0]


def bernoulli_color(t: MetricTree, p: float, stream: CounterStream) -> PrunedResult:
    """Minimal subtree spanning the root and a Bernoulli(1-p) leaf sample.

    Each leaf is independently *selected* with probability 1-p (one uniform
    per leaf, in vertex order); unselected structure is erased and chains
    series-reduced.  No selected leaves leaves the empty tree.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if t.is_empty:
        return PrunedResult(t, False, keep=np.ones(1, dtype=bool))
    fa = Forest.from_trees([t])
    leaves = (fa.nchild == 0).nonzero()[0]
    red = _spanning_reduction(fa, leaves[stream.bernoulli(len(leaves), 1.0 - p)])
    return PrunedResult(red.reduced()[0], bool(red.survived[0]), keep=red.keep)


# --------------------------------------------------------------------- #
# Hereditary reduction                                                    #
# --------------------------------------------------------------------- #


class NonHereditaryError(ValueError):
    """The predicate held on a subtree but not on an enclosing one."""

    def __init__(self, vertex: int):
        super().__init__(
            f"predicate holds at vertex {vertex} but fails on its parent's "
            f"descendant tree; not hereditary on this input"
        )
        self.vertex = vertex


def hereditary_reduce(t: MetricTree, keep_pred: Callable[[MetricTree], bool], *,
                      bisect_tol: float = 1e-12) -> PrunedResult:
    """Keep the root and the points whose descendant tree satisfies the
    predicate; series-reduce.

    The test oracle of the forest engine: the caller asserts the predicate
    is hereditary (true on a subtree implies true on every enclosing
    subtree); violations detectable at vertex resolution raise
    :class:`NonHereditaryError`, and edge interiors are resolved by
    bisection to ``bisect_tol``.  A set {phi >= t} is :func:`gdp_prune`'s.
    """
    if t.is_empty:
        return PrunedResult(t, False, keep=np.ones(1, dtype=bool))
    n = t.n_vertices
    ok = np.zeros(n, dtype=bool)
    for v in range(n - 1, 0, -1):
        ok[v] = bool(keep_pred(descendant_subtree(t, TreePoint.vertex(v))))
    for v in range(1, n):
        if ok[v] and t.parent[v] != 0 and not ok[t.parent[v]]:
            raise NonHereditaryError(v)
    keep = ok.copy()
    keep[0] = True
    cuts = []
    for c in np.flatnonzero(~keep[1:]) + 1:
        ln = float(t.length[c])
        # predicate is monotone nonincreasing in the offset from the parent
        probe = min(bisect_tol, ln / 2)
        if not keep_pred(descendant_subtree(t, TreePoint.on_edge(int(c), probe))):
            continue
        lo, hi = probe, ln  # true at lo, false at hi (the child's own tree)
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            if keep_pred(descendant_subtree(t, TreePoint.on_edge(int(c), mid))):
                lo = mid
            else:
                hi = mid
        cuts.append((int(c), 0.5 * (lo + hi)))
    cutmask = np.zeros(n, dtype=bool)
    cutmask[[c for c, _ in cuts]] = True
    red = ForestReduction(Forest.from_trees([t]), keep, cutmask, np.array([s for _, s in cuts]))
    return PrunedResult(red.reduced()[0], bool(red.survived[0]), tuple(cuts), keep)


# --------------------------------------------------------------------- #
# Semigroup check                                                         #
# --------------------------------------------------------------------- #


def semigroup_check(t: MetricTree, phi: PhiFunctional | str, s: float, t2: float,
                    atol: float = 1e-9):
    """Compare S_t2 o S_s against S_(s+t2) on one tree.

    Returns (equal, two_step, one_step); equality is canonical-shape
    equality plus lengths within atol after canonical alignment.
    """
    phi = _as_phi(phi)
    from .trees import almost_isometric

    two = gdp_prune(gdp_prune(t, phi, s).tree, phi, t2).tree
    one = gdp_prune(t, phi, s + t2).tree
    return almost_isometric(two, one, atol), two, one


# --------------------------------------------------------------------- #
# Monotonicity checker                                                    #
# --------------------------------------------------------------------- #


def check_monotone(phi: PhiFunctional | str, trees, stream: CounterStream,
                   pairs_per_tree: int = 16) -> bool:
    """Randomized check that phi respects the subtree partial order.

    Samples descendant/ancestor vertex pairs and verifies
    phi(Delta_descendant) <= phi(Delta_ancestor).  A passing check is
    evidence, not proof.
    """
    phi = _as_phi(phi)
    for t in trees:
        if t is None or t.is_empty or t.n_vertices < 3:
            continue
        F = phi.vertex_values(t)
        par = t.parent
        picks = (stream.uniforms(pairs_per_tree) * (t.n_vertices - 1)).astype(np.int64) + 1
        for v in picks:
            a = int(par[v])
            while a > 0 and stream.uniform() < 0.5:
                a = int(par[a])
            anc = a if a > 0 else int(par[v])
            if anc <= 0:
                continue
            if F[v] > F[anc] + 1e-12:
                return False
    return True
