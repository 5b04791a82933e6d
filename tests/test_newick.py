"""Newick round trips, canonical output, and parse errors."""

import numpy as np
import pytest

from igwlab import trees as T
from igwlab.newick import NewickError, from_newick, to_newick
from igwlab.offspring import IGW
from igwlab.sampler import sample_forest


class TestFormat:
    def test_single_edge(self):
        assert to_newick(from_newick("(:2);")) == "(:2.0);"
        t = from_newick("(:2);")
        assert t.n_edges == 1 and t.length[1] == 2.0

    def test_cherry(self):
        t = from_newick("((:1,:3):1);")
        assert t.n_edges == 3
        assert sorted(t.length[1:]) == [1.0, 1.0, 3.0]

    def test_empty(self):
        assert to_newick(T.MetricTree.empty()) == ";"
        assert from_newick(";").is_empty

    def test_canonical_sibling_order(self):
        a = to_newick(from_newick("((:1,(:2,:3):1):1);"))
        b = to_newick(from_newick("(((:3,:2):1,:1):1);"))
        assert a == b


class TestRoundTrip:
    def test_random_trees_roundtrip_exactly(self):
        trees, _ = sample_forest(IGW(2 / 3), 77, 40, lam=1.3, budget=20000)
        for t in trees:
            if t is None:
                continue
            back = from_newick(to_newick(t))
            assert back.canonical_code() == t.canonical_code()
            # repr() floats survive the trip bit for bit
            assert T.almost_isometric(back, t, atol=0.0)


class TestErrors:
    @pytest.mark.parametrize("bad", ["", "(:1)", "((:1,:2):1", "(abc);", "(:1x);"])
    def test_malformed_raises_with_position(self, bad):
        with pytest.raises((NewickError, ValueError)) as e:
            from_newick(bad)

    @pytest.mark.parametrize("bad,pos", [("(:0);", 2), ("(:-1);", 2), ("(:1e400);", 2),
                                         ("((:1,:0):1);", 6)])
    def test_bad_length_raises_with_position(self, bad, pos):
        with pytest.raises(NewickError) as e:
            from_newick(bad)
        assert e.value.pos == pos

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            from_newick("(:0);")
        with pytest.raises(ValueError):
            from_newick("(:-1);")
