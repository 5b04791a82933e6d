"""Tree structures and geometry: the worked examples plus randomized
invariants (canonical-code stability, series-reduction conservation laws,
order recursion)."""

import re
from time import perf_counter

import numpy as np
import pytest

from igwlab import pruning as P
from igwlab import trees as T
from igwlab.newick import from_newick, to_newick
from igwlab.offspring import IGW
from igwlab.rng import CounterStream
from igwlab.sampler import sample_forest


@pytest.fixture(scope="module")
def cherry():
    """Stem 1, leaf edges 1 and 3: height 4, length 5."""
    return from_newick("((:1,:3):1);")


@pytest.fixture(scope="module")
def random_forest():
    trees, _ = sample_forest(IGW(0.7), 4242, 60, lam=1.0, budget=50000)
    return [t for t in trees if t is not None]


class TestBasics:
    def test_empty_tree(self):
        e = T.MetricTree.empty()
        assert e.is_empty and e.n_edges == 0
        assert e.tree_height() == 0.0 and e.tree_length() == 0.0
        assert e.leaf_count() == 0
        assert e.horton_strahler_order() == 0

    def test_single_edge(self):
        t = from_newick("(:2);")
        assert t.tree_height() == 2.0 and t.tree_length() == 2.0
        assert t.n_edges == 1 and t.leaf_count() == 1
        assert t.horton_strahler_order() == 1

    def test_cherry_metrics(self, cherry):
        assert cherry.tree_height() == 4.0
        assert cherry.tree_length() == 5.0
        assert cherry.n_edges == 3 and cherry.leaf_count() == 2
        assert cherry.horton_strahler_order() == 2
        assert cherry.is_planted and cherry.is_reduced

    def test_shape_drops_lengths(self, cherry):
        s = cherry.shape()
        assert isinstance(s, T.CombinatorialTree)
        assert not isinstance(s, T.MetricTree)
        assert s.n_edges == 3

    def test_length_positivity_enforced(self):
        with pytest.raises(ValueError):
            T.MetricTree(np.array([-1, 0], dtype=np.int32), np.array([0.0, 0.0]))

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            T.CombinatorialTree(np.array([-1, -1], dtype=np.int32))


class TestForestWithoutLiveTrees:
    """A list of trees with no live tree read its kind from the live trees
    only, so its empty slots came back shape-only."""

    @pytest.mark.parametrize("kind", [T.MetricTree, T.CombinatorialTree])
    @pytest.mark.parametrize("slots", [[0], [None, 0], [0, None, 0]])
    def test_empty_slots_keep_their_kind(self, kind, slots):
        trees = [None if s is None else kind.empty() for s in slots]
        f = T.Forest.from_trees(trees)
        assert f.R == f.V == 0 and f.ngen == 0 and f.metric == (kind is T.MetricTree)
        assert [type(t) for t in f] == [type(t) for t in trees]
        if kind is T.MetricTree:
            for red in (P.PrunedForest(trees, "length", 1.0), P.color_forest(trees, 0.5, 1)):
                assert [type(t) for t in red.reduced()] == [type(t) for t in f]


class TestSeriesReduce:
    def test_chain_merges_lengths_exactly(self):
        chain = T.MetricTree(np.array([-1, 0, 1], dtype=np.int32),
                             np.array([0.0, 1.0, 2.0]))
        r = T.series_reduce(chain)
        assert r.n_edges == 1 and r.tree_length() == 3.0

    def test_idempotent_on_reduced(self, cherry):
        assert T.series_reduce(cherry) is cherry

    def test_preserves_height_and_length(self):
        # planted tree with two chained degree-2 vertices and a cherry on top
        parent = np.array([-1, 0, 1, 2, 3, 3], dtype=np.int32)
        length = np.array([0.0, 0.5, 0.25, 0.25, 1.0, 2.0])
        t = T.MetricTree(parent, length)
        assert not t.is_reduced
        r = T.series_reduce(t)
        assert r.is_reduced
        assert r.tree_length() == pytest.approx(t.tree_length(), abs=0)
        assert r.tree_height() == pytest.approx(t.tree_height(), abs=0)
        assert r.n_edges == 3

    def test_empty(self):
        e = T.MetricTree.empty()
        assert T.series_reduce(e) is e


class TestHortonOrder:
    def test_perfect_binary_depth3(self):
        # root-to-leaf edge depth 3: stem, one branch level, then cherries
        nwk = "(((:1,:1):1,(:1,:1):1):1);"
        assert from_newick(nwk).horton_strahler_order() == 3
        # one more level needs one more pruning
        deeper = "((((:1,:1):1,(:1,:1):1):1,((:1,:1):1,(:1,:1):1):1):1);"
        assert from_newick(deeper).horton_strahler_order() == 4

    def test_matches_iterated_pruning(self, random_forest):
        from igwlab.pruning import horton_prune

        for t in random_forest[:20]:
            k = 0
            r = t
            while not r.is_empty:
                r = horton_prune(r)
                k += 1
            assert k == t.horton_strahler_order()

    def test_order_decrements_under_pruning(self, random_forest):
        from igwlab.pruning import horton_prune

        for t in random_forest[:20]:
            if t.horton_strahler_order() >= 2:
                assert horton_prune(t).horton_strahler_order() == \
                    t.horton_strahler_order() - 1


class TestCanonicalCode:
    def test_sibling_order_irrelevant(self):
        a = from_newick("((:1,(:2,:3):1):1);")
        b = from_newick("(((:3,:2):1,:1):1);")
        assert a.canonical_code() == b.canonical_code()

    def test_distinct_shapes_distinct_codes(self, cherry):
        assert cherry.canonical_code() != from_newick("(:1);").canonical_code()

    def test_random_shuffle_invariance(self, random_forest):
        """Relabeling children in any order leaves the code unchanged."""
        st = CounterStream(11)
        for t in random_forest[:15]:
            n = t.n_vertices
            # random permutation that respects nothing: rebuild via shuffled ids
            perm = np.arange(n)
            order = np.argsort(st.uniforms(n - 1))
            perm[1:] = 1 + order
            inv = np.empty(n, dtype=np.int64)
            inv[perm] = np.arange(n)
            parent = np.empty(n, dtype=np.int32)
            length = np.empty(n)
            parent[0] = -1
            for v in range(1, n):
                parent[inv[v]] = inv[t.parent[v]]
                length[inv[v]] = t.length[v]
            length[0] = 0.0
            shuffled = T.MetricTree(parent, length)
            assert shuffled.canonical_code() == t.canonical_code()
            assert T.almost_isometric(shuffled, t, atol=0.0)


class TestDescendantSubtree:
    def test_root_returns_whole_tree(self, cherry):
        assert T.descendant_subtree(cherry, T.TreePoint.vertex(0)) is cherry

    def test_leaf_tip_is_empty(self, cherry):
        leaf = int(np.flatnonzero(cherry.children_counts() == 0)[0])
        sub = T.descendant_subtree(cherry, T.TreePoint.vertex(leaf))
        assert sub.is_empty

    def test_interior_point_on_leaf_edge(self, cherry):
        # offset 1 below the tip of the length-3 edge -> single edge, length 2
        long_edge = int(np.flatnonzero(cherry.length == 3.0)[0])
        sub = T.descendant_subtree(cherry, T.TreePoint.on_edge(long_edge, 1.0))
        assert sub.n_edges == 1 and sub.tree_length() == 2.0

    def test_internal_vertex_is_stemless(self, cherry):
        sub = T.descendant_subtree(cherry, T.TreePoint.vertex(1))
        assert not sub.is_planted
        assert sub.tree_length() == 4.0
        assert sub.tree_height() == 3.0

    def test_length_monotone_in_point(self, random_forest):
        """length(descendant tree) <= length(tree), equality only at root."""
        for t in random_forest[:10]:
            total = t.tree_length()
            for v in range(1, min(t.n_vertices, 12)):
                sub = T.descendant_subtree(t, T.TreePoint.vertex(v))
                assert sub.tree_length() < total

    def test_out_of_range_rejected(self, cherry):
        with pytest.raises(ValueError):
            T.descendant_subtree(cherry, T.TreePoint.vertex(99))
        with pytest.raises(ValueError):
            T.descendant_subtree(cherry, T.TreePoint.on_edge(1, 5.0))


def _caterpillar(depth: int, seed: int) -> T.MetricTree:
    """Planted caterpillar: a spine of ``depth`` edges, one leaf hanging
    from every spine vertex; 2 * depth edges, lengths in [0.5, 1.5)."""
    parent = [-1, 0]
    for _ in range(depth - 1):
        spine = len(parent) - 1
        parent += [spine, spine]
    parent.append(len(parent) - 1)
    n = len(parent)
    length = np.r_[0.0, 0.5 + CounterStream(seed).uniforms(n - 1)]
    return T.MetricTree(np.array(parent, dtype=np.int32), length)


def _shuffled(t: T.MetricTree, seed: int) -> T.MetricTree:
    """The same tree with its non-root vertices relabeled at random."""
    n = t.n_vertices
    inv = np.r_[0, 1 + np.argsort(np.argsort(CounterStream(seed).uniforms(n - 1)))]
    parent = np.empty(n, dtype=np.int32)
    length = np.empty(n)
    parent[inv] = np.r_[-1, inv[t.parent[1:]]]
    length[inv] = t.length
    return T.MetricTree(parent, length)


class TestCanonicalOrderAtDepth:
    """The canonical order, its code, the Newick writer and the isometry
    test on trees far deeper than the interpreter's recursion limit."""

    DEPTH = 3000

    @pytest.fixture(scope="class")
    def deep(self):
        return _caterpillar(self.DEPTH, 5)

    def test_writer_and_code(self, deep):
        text = to_newick(deep)
        assert text.count("(") == int(np.count_nonzero(deep.children_counts()))
        assert sorted(re.findall(r":([^,)]+)", text)) == sorted(map(repr, deep.length[1:].tolist()))
        code = b"(())"  # the last spine vertex and its leaf
        for _ in range(self.DEPTH - 1):
            code = b"(()" + code + b")"
        assert deep.canonical_code() == b"(" + code + b")"

    def test_isometry(self, deep):
        shuffled = _shuffled(deep, 6)
        assert not np.array_equal(shuffled.parent, deep.parent)
        assert T.almost_isometric(shuffled, deep, atol=0.0)
        assert to_newick(shuffled) == to_newick(deep)
        length = shuffled.length.copy()
        length[np.flatnonzero(shuffled.children_counts() == 0)[-1]] += 1e-6
        moved = T.MetricTree(shuffled.parent, length)
        assert not T.almost_isometric(moved, deep, atol=1e-9)

    def test_isometry_cost_is_near_linear(self):
        def best(t):
            times = []
            for _ in range(3):
                t0 = perf_counter()
                assert T.almost_isometric(t, t)
                times.append(perf_counter() - t0)
            return min(times)

        small, large = best(_caterpillar(3000, 7)), best(_caterpillar(6000, 7))
        assert large < 3 * small, (small, large)
