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

One engine does every reduction: a chunk of trees becomes global arrays
whose BFS levels are swept with segment reductions, values bottom-up and
the series reduction of the keep set top-down.  The per-tree functions are
one-tree calls of it.  Horton pruning removes all leaves; Bernoulli leaf
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
    CombinatorialTree,
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
        return _forest_values(_ForestArrays([t]), self)[0]


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


class _ForestArrays:
    """A chunk of trees concatenated into global parallel arrays.

    The breadth-first layout of each tree is preserved, so within any
    global BFS level the parent ids are nondecreasing and every per-parent
    reduction is a sorted-segment ``reduceat``; children of a vertex all
    live in the next level, so level-ordered passes finalize values in one
    sweep per direction.  A single tree's levels are already contiguous, so
    its level slices are plain slices and no sort is needed.
    """

    def __init__(self, trees):
        live = [i for i, t in enumerate(trees) if t is not None and not t.is_empty]
        self.n_slots = len(trees)
        self.slot_index = np.array(live, dtype=np.int64)
        trees = [trees[i] for i in live]
        R = self.R = len(trees)
        self.metric = bool(trees) and isinstance(trees[0], MetricTree)
        if R == 1:
            t = trees[0]
            V = t.n_vertices
            off = np.array([0, V])
            par = t.parent.astype(np.int64)
            par[0] = 0                        # the root points at itself
            self.gorder, self.gbounds = None, t.gen_starts()
            self.slot = np.zeros(V, dtype=np.int64)
            self.nchild = t.children_counts().astype(np.int64)
        else:
            ns = np.array([t.n_vertices for t in trees], dtype=np.int64)
            off = np.zeros(R + 1, dtype=np.int64)
            np.cumsum(ns, out=off[1:])
            V = int(off[-1])
            par = np.concatenate([t.parent for t in trees] or [[]]).astype(np.int64)
            par += np.repeat(off[:-1], ns)
            par[off[:-1]] = off[:-1]          # roots point at themselves
            gen = np.concatenate([np.repeat(np.arange(len(gs) - 1), np.diff(gs))
                                  for gs in (t.gen_starts() for t in trees)] or [[]])
            self.gorder = np.argsort(gen, kind="stable")
            ngen = int(gen.max()) + 1 if V else 0
            self.gbounds = np.searchsorted(gen[self.gorder], np.arange(ngen + 1))
            self.slot = np.repeat(np.arange(R, dtype=np.int64), ns)
            self.nchild = np.bincount(par, minlength=V)
            self.nchild[off[:-1]] -= 1
        if self.metric:
            ln = trees[0].length if R == 1 else np.concatenate([t.length for t in trees])
        else:
            ln = np.zeros(V)
        self.off, self.par, self.ln, self.V = off, par, ln, V
        self.ngen = len(self.gbounds) - 1
        self.is_root = np.zeros(V, dtype=bool)
        self.is_root[off[:-1]] = True

    def gen_slice(self, g):
        lo, hi = self.gbounds[g], self.gbounds[g + 1]
        return slice(lo, hi) if self.gorder is None else self.gorder[lo:hi]

    @staticmethod
    def _segments(p):
        """Starts of the runs of equal values in sorted ``p``, and the values."""
        head = np.empty(len(p), dtype=bool)
        head[:1] = True
        np.not_equal(p[1:], p[:-1], out=head[1:])
        cut = head.nonzero()[0]
        return cut, p[cut]


def _forest_values(fa: _ForestArrays, phi: PhiFunctional):
    """(F, V): phi(Delta_v) on a forest by descending BFS levels, and for a
    constant law the value on the edge above each vertex (None if additive)."""
    V, par, ln = fa.V, fa.par, fa.ln
    name = phi.name
    if name == "ord":
        # Horton-Strahler vertex orders: leaf 1, the max child order, +1
        # when at least two children attain it; phi = ord - 1
        o = np.ones(V, dtype=np.int64)
        top = np.zeros(V, dtype=np.int64)   # max child order
        tie = np.zeros(V, dtype=np.int64)   # how many children attain it
        for g in range(fa.ngen - 1, 0, -1):
            seg = fa.gen_slice(g)
            o[seg] = np.maximum(top[seg] + (tie[seg] >= 2), 1)
            og = o[seg]
            cut, pu = fa._segments(par[seg])
            omax = np.maximum.reduceat(og, cut)
            top[pu] = omax
            sizes = np.diff(np.append(cut, len(og)))
            tie[pu] = np.add.reduceat((og == np.repeat(omax, sizes)).astype(np.int64), cut)
        roots = fa.off[:-1]
        o[roots] = top[roots] + (tie[roots] >= 2)
        F = (o - 1).astype(np.float64)
        return F, F  # the planted tree above an edge has the child's order
    F = np.zeros(V)
    for g in range(fa.ngen - 1, 0, -1):
        seg = fa.gen_slice(g)
        cut, pu = fa._segments(par[seg])
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

    Given per-vertex ``keep`` plus optional interior cut points, computes
    the series-reduced structure in place: anchors (nearest reduced-tree
    ancestor), merged edge lengths, per-tree edge counts, survival, and the
    branch degree at the first vertex of each reduced tree.  Chain lengths
    add in root-to-leaf order.
    """

    def __init__(self, fa: _ForestArrays, keep, cutmask=None, cut_piece=None):
        self.fa = fa
        V, par, ln = fa.V, fa.par, fa.ln
        self.keep = keep
        if cutmask is None:
            cutmask = np.zeros(V, dtype=bool)
            cut_piece = np.zeros(0)
        self.cut_piece = cut_piece
        # kept children plus cut leaves (a cut edge's child is never kept)
        kcnt = np.bincount(par[(keep | cutmask) & ~fa.is_root], minlength=V)
        real = keep & (fa.is_root | (kcnt != 1))
        anchor = par.copy()  # level-1 vertices anchor at their root
        acc = ln.copy()
        for g in range(2, fa.ngen):
            seg = fa.gen_slice(g)
            if not keep[seg].any():
                break  # the kept set hangs from the roots: nothing deeper
            p = par[seg]
            preal = real[p]
            anchor[seg] = np.where(preal, p, anchor[p])
            acc[seg] += np.where(preal, 0.0, acc[p])
        self.kcnt, self.anchor, self.acc = kcnt, anchor, acc
        self.cut_idx = cut_idx = cutmask.nonzero()[0]
        w = par[cut_idx]
        wreal = real[w]
        self.cut_slot = fa.slot[cut_idx]
        self.cut_parent_red = np.where(wreal, w, anchor[w])
        self.cut_len_red = cut_piece + np.where(wreal, 0.0, acc[w])
        body = real & ~fa.is_root
        self.red_edge_vertices = body.nonzero()[0]
        self.red_edges = np.bincount(fa.slot[body | cutmask], minlength=fa.R)
        self.survived = self.red_edges > 0

    @cached_property
    def first_branch(self) -> np.ndarray:
        """Per live slot: the branch degree at the first vertex of the
        reduced tree (0 when it is a bare edge)."""
        fa, keep, kcnt = self.fa, self.keep, self.kcnt
        # first kept child, to walk degree-2 chains up from the stem
        fkc = np.full(fa.V, -1, dtype=np.int64)
        kept_nonroot = (keep & ~fa.is_root).nonzero()[0]
        fkc[fa.par[kept_nonroot]] = kept_nonroot
        fkc[fa.par[self.cut_idx]] = -2  # chain runs into a cut leaf
        out = np.zeros(fa.R, dtype=np.int64)
        for s in self.survived.nonzero()[0]:
            v = fa.off[s] + 1
            if not keep[v]:
                continue  # stem cut: a bare edge remains
            while kcnt[v] == 1:
                v = fkc[v]
                if v < 0:
                    break
            out[s] = kcnt[v] if v >= 0 else 0
        return out

    def pooled_lengths(self) -> np.ndarray:
        """Edge lengths of all reduced surviving trees, pooled."""
        return np.concatenate((self.acc[self.red_edge_vertices], self.cut_len_red))

    def extract_reduced(self, live_slot: int):
        """The reduced tree of one live slot.

        Siblings come in the order of the kept tree's breadth-first layout,
        where a cut leaf follows the last original child of its parent.
        """
        fa = self.fa
        if not self.survived[live_slot]:
            return MetricTree.empty() if fa.metric else CombinatorialTree.empty()
        lo, hi = fa.off[live_slot], fa.off[live_slot + 1]
        body = self.red_edge_vertices
        mine = body[body.searchsorted(lo): body.searchsorted(hi)]
        cuts = np.arange(*self.cut_slot.searchsorted([live_slot, live_slot + 1]))
        w = fa.par[self.cut_idx[cuts]]
        last = fa.par[lo:hi].searchsorted(w, side="right") - 1 + lo
        order = np.argsort(np.concatenate((2 * mine, 2 * last + 1)), kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(1, len(order) + 1)
        new_of = np.zeros(hi - lo, dtype=np.int64)  # reduced ids; the root is 0
        new_of[mine - lo] = rank[:len(mine)]
        up = np.concatenate((self.anchor[mine], self.cut_parent_red[cuts]))[order] - lo
        parent = np.concatenate(([-1], new_of[up]))
        length = np.concatenate(([0.0], np.concatenate(
            (self.acc[mine], self.cut_len_red[cuts]))[order]))
        if fa.metric:
            return MetricTree(parent, length, validate=True)
        return CombinatorialTree(parent, validate=True)

    def scatter(self, per_live, fill=0):
        """Per-live-slot values back onto the original chunk positions."""
        per_live = np.asarray(per_live)
        out = np.full(self.fa.n_slots, fill, dtype=per_live.dtype)
        out[self.fa.slot_index] = per_live
        return out


class PrunedForest(ForestReduction):
    """Generalized dynamical pruning of a whole chunk of trees, plus the
    first-branch-point thinning pair (k1, m1) of planted trees: the
    children of the stem's upper vertex, and how many of their planted
    subtrees survive the pruning on their own.
    """

    def __init__(self, trees, phi: PhiFunctional | str, threshold: float):
        phi = _as_phi(phi)
        if threshold <= 0:
            raise ValueError("the forest path needs a positive threshold")
        thr = float(threshold)
        fa = _ForestArrays(trees)
        F, Vint = _forest_values(fa, phi)
        if phi.law == "additive":
            top = F + fa.ln  # the value just below each vertex's parent
            alive = top > thr
            keep = F >= thr
            cutmask = alive & ~keep & ~fa.is_root
            cut_piece = top[cutmask] - thr
        else:
            alive = Vint >= thr
            keep = alive.copy()
            cutmask = None
            cut_piece = None
        keep |= fa.is_root
        super().__init__(fa, keep, cutmask, cut_piece)
        self.alive = alive & ~fa.is_root

    @property
    def k1(self) -> np.ndarray:
        return self.fa.nchild[self.fa.off[:-1] + 1]

    @property
    def m1(self) -> np.ndarray:
        fa = self.fa
        first = fa.off[:-1] + 1
        kid_of_first = fa.par == np.repeat(first, np.diff(fa.off))
        kid_of_first[fa.off[:-1]] = False
        return np.bincount(fa.slot[kid_of_first & self.alive], minlength=fa.R)


def _spanning_reduction(fa: _ForestArrays, chosen) -> ForestReduction:
    """Reduce each tree to the minimal subtree spanning its root and the
    chosen vertices."""
    keep = np.zeros(fa.V, dtype=bool)
    keep[chosen] = True
    for g in range(fa.ngen - 1, 0, -1):
        seg = fa.gen_slice(g)
        keep[fa.par[seg][keep[seg]]] = True
    keep[fa.off[:-1]] = True
    return ForestReduction(fa, keep)


def color_forest(trees, p: float, seed: int, replicate0: int = 0,
                 domain: int = 0) -> ForestReduction:
    """Bernoulli leaf coloring of a whole chunk, one stream per tree.

    Tree i (chunk position) uses the stream (seed, replicate0 + i, domain);
    leaf number r of a tree consumes that stream's r-th uniform, exactly
    like feeding :func:`bernoulli_color` a fresh ``CounterStream`` per tree.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    fa = _ForestArrays(trees)
    from .rng import philox4x32, stream_keys, _to_unit

    leaves = np.flatnonzero((fa.nchild == 0) & ~fa.is_root)
    lslot = fa.slot[leaves]
    cut, _ = fa._segments(lslot)  # leaves are slot-sorted (global id order)
    sizes = np.diff(np.concatenate((cut, [len(leaves)])))
    rank = np.arange(len(leaves), dtype=np.int64) - np.repeat(cut, sizes)
    keys = stream_keys(seed, fa.slot_index[lslot] + replicate0)
    w01, w23 = philox4x32(keys, (rank >> 1).astype(np.uint64), domain)
    u = np.where(rank & 1, _to_unit(w23), _to_unit(w01))
    return _spanning_reduction(fa, leaves[u < (1.0 - p)])


def survival_statistics(trees, phi: PhiFunctional | str) -> np.ndarray:
    """:func:`survival_statistic` of every tree of a chunk (0 for None)."""
    phi = _as_phi(phi)
    fa = _ForestArrays(trees)
    F, Vint = _forest_values(fa, phi)
    first = fa.off[:-1] + 1
    out = np.zeros(fa.n_slots)
    out[fa.slot_index] = F[first] + fa.ln[first] if phi.law == "additive" else Vint[first]
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
    return PrunedResult(pf.extract_reduced(0), bool(pf.survived[0]), cuts, pf.keep)


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
    return ForestReduction(_ForestArrays([t]), keep).extract_reduced(0)


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
    fa = _ForestArrays([t])
    leaves = (fa.nchild == 0).nonzero()[0]
    red = _spanning_reduction(fa, leaves[stream.bernoulli(len(leaves), 1.0 - p)])
    return PrunedResult(red.extract_reduced(0), bool(red.survived[0]), keep=red.keep)


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


def hereditary_reduce(t: MetricTree, keep_pred: Callable[[MetricTree], bool] | None = None,
                      *, phi: PhiFunctional | str | None = None,
                      threshold: float | None = None,
                      bisect_tol: float = 1e-12) -> PrunedResult:
    """Keep the root and the points whose descendant tree satisfies the
    predicate; series-reduce.

    The predicate comes in two forms.  ``phi=..., threshold=...`` names the
    hereditary set {phi >= t}; this routes through :func:`gdp_prune` and is
    bit-for-bit identical to it (the two operators are the same map).  A
    bare callable is handled generically: the caller asserts it is
    hereditary (true on a subtree implies true on every enclosing subtree);
    violations detectable at vertex resolution raise
    :class:`NonHereditaryError`, and edge interiors are resolved by
    bisection to ``bisect_tol``.
    """
    if phi is not None:
        if threshold is None:
            raise ValueError("phi form needs threshold")
        return gdp_prune(t, phi, threshold)
    if keep_pred is None:
        raise ValueError("provide keep_pred or (phi, threshold)")
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
    red = ForestReduction(_ForestArrays([t]), keep, cutmask, np.array([s for _, s in cuts]))
    tree = red.extract_reduced(0)
    return PrunedResult(tree, not tree.is_empty, tuple(cuts), keep)


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
