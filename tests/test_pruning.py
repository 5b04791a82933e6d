"""Pruning operators: exact worked geometry, operator identities, the
reduction engine against the hereditary-predicate oracle, thinning law
cells, and the semigroup dichotomy."""

import math

import numpy as np
import pytest

from igwlab import pruning as P
from igwlab import trees as T
from igwlab.newick import from_newick, to_newick
from igwlab.offspring import IGW, from_spec
from igwlab.rng import CounterStream
from igwlab.sampler import iter_forest, sample_forest


@pytest.fixture(scope="module")
def cherry():
    return from_newick("((:1,:3):1);")


@pytest.fixture(scope="module")
def forest():
    trees, _ = sample_forest(IGW(0.7), 31, 120, lam=1.0, budget=50000)
    return [t for t in trees if t is not None]


# ===================================================================== #
# Worked examples                                                        #
# ===================================================================== #


class TestWorkedGeometry:
    def test_threshold_zero_is_identity(self, cherry):
        res = P.gdp_prune(cherry, "height", 0.0)
        assert res.survived and res.tree is cherry

    def test_single_edge_dies_above_its_height(self):
        res = P.gdp_prune(from_newick("(:2);"), "height", 3.0)
        assert not res.survived and res.tree.is_empty

    @pytest.mark.parametrize("phi", ["length", "height"])
    def test_cherry_prunes_to_edge_of_length_two(self, cherry, phi):
        """Stem 1 + surviving 1 of the long leaf edge, series-reduced."""
        res = P.gdp_prune(cherry, phi, 2.0)
        assert res.survived
        assert res.tree.n_edges == 1
        assert res.tree.tree_length() == pytest.approx(2.0, abs=1e-12)

    def test_cut_points_land_exactly_at_threshold(self, forest):
        """Every cut leaf of an additive pruning scores exactly t."""
        for t in forest[:25]:
            thr = 0.6 * P.survival_statistic(t, "length")
            res = P.gdp_prune(t, "length", thr)
            F = P.PHI_LENGTH.vertex_values(t)
            for c, off in res.cut_log:
                val = F[c] + t.length[c] - off
                assert val == pytest.approx(thr, abs=1e-9)

    def test_negative_threshold_rejected(self, cherry):
        with pytest.raises(ValueError):
            P.gdp_prune(cherry, "height", -1.0)

    @pytest.mark.parametrize("thr", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, cherry, thr):
        """Both entry points let nan and inf through and pruned every tree."""
        with pytest.raises(ValueError, match=rf"finite and >= 0, not {thr}$"):
            P.gdp_prune(cherry, "height", thr)
        with pytest.raises(ValueError, match=rf"finite and > 0, not {thr}$"):
            P.PrunedForest([cherry], "height", thr)

    def test_empty_input(self):
        res = P.gdp_prune(T.MetricTree.empty(), "height", 1.0)
        assert not res.survived


class TestHorton:
    def test_cherry_to_edge_to_empty(self, cherry):
        r1 = P.horton_prune(cherry)
        assert r1.n_edges == 1
        assert P.horton_prune(r1).is_empty

    def test_equals_order_functional_at_one(self, forest):
        for t in forest[:30]:
            assert T.almost_isometric(P.horton_prune(t),
                                      P.gdp_prune(t, "ord", 1.0).tree, 1e-12)

    def test_order_iteration_identity(self, forest):
        """R^ord(t) = empty and R^(ord-1) != empty."""
        for t in forest[:15]:
            k = t.horton_strahler_order()
            r = t
            for _ in range(k - 1):
                r = P.horton_prune(r)
            assert not r.is_empty
            assert P.horton_prune(r).is_empty

    def test_shape_only_trees(self):
        trees, _ = sample_forest(from_spec("geom:0.5"), 17, 50, budget=20000)
        for t in trees:
            if t is not None and t.horton_strahler_order() >= 2:
                assert P.horton_prune(t).is_reduced


class TestMonotonicity:
    def test_threshold_monotone(self, forest):
        """Higher threshold prunes to a smaller tree (length/height/leaves)."""
        for t in forest[:20]:
            top = P.survival_statistic(t, "length")
            r1 = P.gdp_prune(t, "length", 0.3 * top).tree
            r2 = P.gdp_prune(t, "length", 0.7 * top).tree
            assert r2.tree_length() <= r1.tree_length() + 1e-12
            assert r2.tree_height() <= r1.tree_height() + 1e-12
            assert r2.leaf_count() <= r1.leaf_count()

    @pytest.mark.parametrize("phi", ["height", "length", "leaves", "ord"])
    def test_builtin_functionals_monotone(self, forest, phi):
        assert P.check_monotone(phi, forest[:30], CounterStream(3))

    def test_vertex_values_match_descendant_subtrees(self, forest):
        """F[v] recomputed on the extracted descendant tree agrees."""
        for t in forest[:8]:
            for phi, fn in (("height", T.MetricTree.tree_height),
                            ("length", T.MetricTree.tree_length)):
                F = P.phi_by_name(phi).vertex_values(t)
                for v in range(1, min(t.n_vertices, 10)):
                    sub = T.descendant_subtree(t, T.TreePoint.vertex(v))
                    assert F[v] == pytest.approx(fn(sub), abs=1e-9)


class TestHereditary:
    def test_callable_matches_gdp_within_bisection(self, cherry):
        a = P.hereditary_reduce(cherry, lambda s: s.tree_height() >= 2.0)
        b = P.gdp_prune(cherry, "height", 2.0)
        assert T.almost_isometric(a.tree, b.tree, 1e-9)

    def test_always_true_is_identity(self, cherry):
        res = P.hereditary_reduce(cherry, lambda s: True)
        assert T.almost_isometric(res.tree, cherry, 0.0)

    def test_composition_property(self, forest):
        """R_A' o R_A = R_(A' o A) with the composed predicate, 100 trees."""
        thr1, thr2 = 0.6, 0.9

        def composed(s):
            return P.gdp_prune(s, "height", thr1).tree.tree_height() >= thr2

        small = [t for t in forest if t.n_vertices <= 500][:100]
        assert len(small) >= 80
        for t in small:
            two = P.hereditary_reduce(P.gdp_prune(t, "height", thr1).tree,
                                      lambda s: s.tree_height() >= thr2)
            one = P.hereditary_reduce(t, composed)
            assert T.almost_isometric(two.tree, one.tree, 1e-9)

    def test_non_hereditary_detected(self, cherry):
        with pytest.raises(P.NonHereditaryError) as e:
            P.hereditary_reduce(cherry, lambda s: s.tree_height() <= 0.5)
        assert e.value.vertex >= 1


class TestColoring:
    def test_p_zero_identity(self, cherry):
        res = P.bernoulli_color(cherry, 0.0, CounterStream(1))
        assert T.almost_isometric(res.tree, cherry, 0.0)

    def test_single_edge_survival_frequency(self):
        t = from_newick("(:1);")
        surv = sum(P.bernoulli_color(t, 0.7, CounterStream(900, r)).survived
                   for r in range(30000))
        assert surv / 30000 == pytest.approx(0.3, abs=0.01)

    def test_colored_tree_spans_selected_leaves(self, forest):
        for i, t in enumerate(forest[:20]):
            res = P.bernoulli_color(t, 0.5, CounterStream(55, i))
            if res.survived:
                assert res.tree.is_reduced and res.tree.is_planted
                assert res.tree.leaf_count() <= t.leaf_count()
                assert res.tree.tree_length() <= t.tree_length() + 1e-9

    def test_p_domain(self, cherry):
        with pytest.raises(ValueError):
            P.bernoulli_color(cherry, 1.0, CounterStream(1))


class TestSemigroup:
    def test_height_continuous_semigroup(self, forest):
        for t in forest[:40]:
            eq, _, _ = P.semigroup_check(t, "height", 0.3, 0.3)
            assert eq

    def test_ord_discrete_semigroup(self, forest):
        for t in forest[:25]:
            eq, _, _ = P.semigroup_check(t, "ord", 1.0, 1.0)
            assert eq

    def test_length_counterexample(self):
        """Tripod with stem 1 and three 1.2-leaves: S1 o S1 != S2."""
        t = from_newick("((:1.2,:1.2,:1.2):1);")
        eq, two, one = P.semigroup_check(t, "length", 1.0, 1.0)
        assert not eq
        assert two.tree_length() == pytest.approx(0.6, abs=1e-12)
        assert one.tree_length() == pytest.approx(1.0, abs=1e-12)


def _strahler(s):
    """Horton-Strahler order by the vertex recursion (leaf 1, the max child
    order, +1 on a tie of the max), read at the stem's upper vertex of a
    planted tree; 0 for the empty tree."""
    if s.is_empty:
        return 0
    par = np.asarray(s.parent)
    kids = [[] for _ in par]
    for v in range(1, len(par)):
        kids[par[v]].append(v)
    order = [0] * len(par)
    for v in range(len(par) - 1, -1, -1):
        top = max((order[c] for c in kids[v]), default=0)
        order[v] = max(1, top + (sum(order[c] == top for c in kids[v]) >= 2))
    return order[1] if len(kids[0]) == 1 else order[0]


def _phi_of(s, phi):
    """phi of one tree, straight from its definition."""
    if phi == "height":
        return s.tree_height()
    if phi == "length":
        return s.tree_length()
    if phi == "leaves":
        return s.leaf_count()
    return _strahler(s) - 1


def _planted(t, c):
    """The edge above vertex c with everything below c, as a planted tree."""
    par = np.asarray(t.parent)
    inside = np.zeros(t.n_vertices, dtype=bool)
    inside[c] = True
    for v in range(c + 1, t.n_vertices):
        inside[v] = inside[par[v]]
    old = [int(par[c])] + list(np.flatnonzero(inside))
    new_of = {v: i for i, v in enumerate(old)}
    parent = [-1] + [new_of[int(par[v])] for v in old[1:]]
    length = [0.0] + [float(t.length[v]) for v in old[1:]]
    return T.MetricTree(np.array(parent), np.array(length))


def _thinning_cells(t, phi, thr):
    """(k, m) by brute force: the children of the stem's upper vertex, and
    how many of their planted subtrees survive the pruning on their own."""
    kids = np.flatnonzero(np.asarray(t.parent) == 1)
    law = P.phi_by_name(phi).law
    vals = [_phi_of(_planted(t, int(c)), phi) for c in kids]
    m = sum(v > thr if law == "additive" else v >= thr for v in vals)
    return len(kids), m


class TestFirstVertexThinning:
    def test_cherry_cells(self, cherry):
        pf = P.PrunedForest([cherry], "length", 2.0)
        assert (pf.k1[0], pf.m1[0], pf.survived[0]) == (2, 1, True)
        pf = P.PrunedForest([cherry], "length", 10.0)
        assert (pf.k1[0], pf.m1[0], pf.survived[0]) == (2, 0, False)

    def test_m_positive_implies_survival(self, forest):
        for t in forest[:30]:
            thr = 0.5 * P.survival_statistic(t, "length")
            pf = P.PrunedForest([t], "length", thr)
            k, m = _thinning_cells(t, "length", thr)
            assert (pf.k1[0], pf.m1[0]) == (k, m)
            if m >= 1:
                assert pf.survived[0]
            assert P.gdp_prune(t, "length", thr).survived == pf.survived[0]


# ===================================================================== #
# Reduction engine vs the hereditary-predicate oracle                    #
# ===================================================================== #


@pytest.mark.parametrize("spec,lam,phi", [
    ("binary", 1.0, "height"), ("binary", 1.0, "leaves"),
    ("igw:0.7", 2.0, "length"), ("igw:0.7", 2.0, "ord"),
    ("zipf:1.5", 0.5, "length"), ("zipf:1.5", 0.5, "leaves"),
])
def test_forest_engine_equals_reference(spec, lam, phi):
    """Keep sets, cut points and (k1, m1) of a forest pruning against
    definitions: the predicate form of hereditary_reduce bisects on
    descendant trees, and the thinning cells are counted on planted
    subtrees.  Leaf thresholds start at 2: at t <= 1 the oracle keeps the
    open edge below a leaf, the engine closes it with the leaf itself.
    """
    d = from_spec(spec)
    trees, _ = sample_forest(d, 99, 150, lam=lam, budget=100000)
    live = [t for t in trees if t is not None]
    if P.phi_by_name(phi).law == "additive":
        med = float(np.median(P.survival_statistics(live, phi)))
        thresholds = (0.5 * med, 1.5 * med)
    else:
        thresholds = (2.0, 3.0) if phi == "leaves" else (1.0, 2.0)
    tol = 1e-10
    for thr in thresholds:
        pf = P.PrunedForest(live, phi, thr)
        lens = []
        checked = 0
        for i, t in enumerate(live):
            lo = pf.fa.off[i]
            res = P.gdp_prune(t, phi, thr)
            assert bool(pf.survived[i]) == res.survived
            assert np.array_equal(pf.keep[lo: pf.fa.off[i + 1]], res.keep)
            if res.survived:
                assert pf.red_edges[i] == res.tree.n_edges
                got = pf.extract_reduced(i)
                assert np.array_equal(got.parent, res.tree.parent)
                assert np.array_equal(got.length, res.tree.length)
                b = int(np.count_nonzero(np.asarray(res.tree.parent) == 1))
                assert pf.first_branch[i] == b
                lens.append(res.tree.length[1:])
            if t.n_vertices <= 2000:
                assert (pf.k1[i], pf.m1[i]) == _thinning_cells(t, phi, thr)
            if t.n_vertices > 40 or checked == 30:
                continue
            checked += 1
            orc = P.hereditary_reduce(t, lambda s: _phi_of(s, phi) >= thr, bisect_tol=tol)
            assert np.array_equal(res.keep, orc.keep)
            assert [c for c, _ in res.cut_log] == [c for c, _ in orc.cut_log]
            for (_, a), (_, b) in zip(res.cut_log, orc.cut_log):
                assert abs(a - b) <= tol
            assert T.almost_isometric(res.tree, orc.tree, 1e-9)
        assert checked >= 20
        ref = np.sort(np.concatenate(lens)) if lens else np.zeros(0)
        got = np.sort(pf.pooled_lengths())
        assert np.array_equal(ref, got)


def test_color_forest_equals_reference():
    """Forest draws equal per-tree stream draws, and the kept set is the
    root plus every ancestor of a selected leaf."""
    d = from_spec("igw:0.7")
    trees, _ = sample_forest(d, 123, 200, lam=1.0, budget=100000)
    live = [t for t in trees if t is not None]
    cf = P.color_forest(live, 0.6, 555)
    for i, t in enumerate(live):
        res = P.bernoulli_color(t, 0.6, CounterStream(555, i))
        assert bool(cf.survived[i]) == res.survived
        assert np.array_equal(cf.keep[cf.fa.off[i]: cf.fa.off[i + 1]], res.keep)
        leaves = np.flatnonzero(t.children_counts() == 0)
        keep = np.zeros(t.n_vertices, dtype=bool)
        keep[0] = True
        for v in leaves[CounterStream(555, i).bernoulli(len(leaves), 0.4)]:
            while not keep[v]:
                keep[v] = True
                v = t.parent[v]
        assert np.array_equal(res.keep, keep)
        if res.survived:
            assert T.almost_isometric(cf.extract_reduced(i), res.tree, 0.0)
            assert res.tree.leaf_count() == keep[leaves].sum()


def _same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_reduction(x, y):
    for name in ("survived", "red_edges", "first_branch", "pooled_lengths", "cut_idx",
                 "cut_piece", "keep"):
        a, b = getattr(x, name), getattr(y, name)
        assert _same(a() if callable(a) else a, b() if callable(b) else b), name
    for i in np.flatnonzero(x.survived):
        s, t = x.extract_reduced(i), y.extract_reduced(i)
        assert _same(s.parent, t.parent) and _same(s.length, t.length)


def test_forest_and_its_trees_reduce_alike():
    """The engine gives byte-identical outputs on a sampled forest and on
    the list of its trees (censored slots included)."""
    d = from_spec("igw:0.7")
    (forest, cen), = iter_forest(d, 8, 300, budget=400, lam=1.0, replicate0=50, chunk=300)
    trees = list(forest)
    assert cen.any() and forest.R > 100
    for phi in ("height", "length", "leaves", "ord"):
        stat = P.survival_statistics(forest, phi)
        assert _same(stat, P.survival_statistics(trees, phi))
        thr = 2.0 if P.phi_by_name(phi).law == "constant" else float(np.median(stat[~cen]))
        x, y = P.PrunedForest(forest, phi, thr), P.PrunedForest(trees, phi, thr)
        _same_reduction(x, y)
        assert _same(x.k1, y.k1) and _same(x.m1, y.m1)
    x, y = P.color_forest(forest, 0.5, 3, replicate0=7), P.color_forest(trees, 0.5, 3, replicate0=7)
    _same_reduction(x, y)


def test_forest_handles_none_slots():
    d = from_spec("binary")
    trees, _ = sample_forest(d, 5, 30, lam=1.0, budget=64)
    pf = P.PrunedForest(trees, "height", 0.5)
    surv = np.zeros(len(trees), dtype=bool)
    surv[pf.fa.slots] = pf.survived
    assert len(surv) == 30
    for i, t in enumerate(trees):
        if t is None:
            assert not surv[i]
