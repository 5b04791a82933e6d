"""Trees read from Newick and cut at a point, pinned bit for bit.

Every tree the package reads back comes through ``from_newick``, and the
hereditary reduction's oracle tests each point on its descendant tree, so
both must lay their output out exactly as before.  These pin ``parent``,
``length`` and ``gen_starts()``, bytes and dtypes, by SHA-256: the trees
read from the Newick text of sampled trees and of their pruned trees, the
trees read from hand-written sibling permutations, and ``descendant_subtree``
at every vertex and at three points of every edge of sampled trees.  Each
malformed input is pinned by the class of the exception it raises, or by
the lengths read when it is accepted.  The values were recorded when both
functions built their vertices in another order and then relabeled them
breadth-first.
"""

import hashlib

import pytest

from igwlab import pruning as P
from igwlab import trees as T
from igwlab.newick import from_newick, to_newick
from igwlab.offspring import from_spec
from igwlab.sampler import sample_forest

SPECS = ("binary", "igw:0.7", "zipf:1.5")


def _trees(spec, n, budget, seed=21):
    trees, _ = sample_forest(from_spec(spec), seed, n, budget=budget, lam=1.0)
    return [t for t in trees if t is not None]


def _update(h, t):
    for a in (t.parent, t.length, t.gen_starts()):
        h.update(f"{a.dtype.str}:{len(a)}\0".encode() + a.tobytes())


def _digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        _update(h, t)
    return h.hexdigest()


# spec -> (trees read back, their gdp_prune(length, 2) results read back);
# 300 trees at budget 5000
READ = {
    "binary": ("41ac7f148e77e846b4a16d31c946fbb14c78fd9ac5e630b4bb60bfea9de94c5c",
               "89dc5fee17bf348fb4db18f1eef1543f3bf0f39f64b16c5d8c3b097460a6a283"),
    "igw:0.7": ("83a829b5acebb5f57cdf4c17f41017099f16402d3b517816939f818bd8c2d8b9",
                "698c125be223b1d45b883796911bc1c560b016b52dd8cedac8ccd6ce74a20d66"),
    "zipf:1.5": ("3cce5a83d60262e2fc074168858f1d79ba60e96dcf073d99adbcf1c4d853a85c",
                 "d90a5df997842c1f285e683ef3fd80e90ea55531da009b68b7f849ab27f0d91d"),
}


@pytest.mark.parametrize("spec", SPECS)
def test_read_sampled_and_pruned(spec):
    trees = _trees(spec, 300, 5000)
    pruned = [P.gdp_prune(t, "length", 2.0).tree for t in trees]
    got = tuple(_digest(from_newick(to_newick(t)) for t in ts) for ts in (trees, pruned))
    assert got == READ[spec]


# the sibling permutations of tests/test_canonical_bits.py's tie trees, and
# the canonical text of each, read in that order
TIES = [
    "(((:1,:5):2,(:2,:3):2):1);", "(((:3,:2):2,(:5,:1):2):1);",
    "(((:0.5,(:1,:2):1):1,(:0.5,(:1,:1.5):1):1):1);",
    "((((:1.5,:1):1,:0.5):1,((:2,:1):1,:0.5):1):1);",
    "((((:1,:2):1,:1):1,((:1,:3):1,:1):1):1,(((:1,:2):1,:1):1,((:1,:2.5):1,:1):1):1,:4);",
    "(:4,((:1,(:2.5,:1):1):1,(:1,(:2,:1):1):1):1,((:1,(:3,:1):1):1,(:1,(:2,:1):1):1):1);",
    "(((:1,:2):1,(:1,:2):1,(:1,:1.5):1):1);", "(((:2,:1):1,(:1.5,:1):1,(:2,:1):1):1);",
]
TIES_DIGEST = "2a34d0f04be5db9a39d18593d44f0ed07784bf13381c70ec2044b06ba163ac04"


def test_read_tie_trees():
    texts = TIES + [to_newick(from_newick(s)) for s in TIES]
    assert _digest(from_newick(s) for s in texts) == TIES_DIGEST


# spec -> digest of every cut of the 17 largest of 200 trees at budget 200:
# at each vertex, then at offsets 0, a third and the whole of each edge
CUTS = {
    "binary": "5c8b383646c84782bb75c839220e3b4ca74a195ad452aa3b96ad4161aa3fc695",
    "igw:0.7": "5b25b54afff51c2662dd65d4a130f5e4ee606bc045f96154237e7f9ed6fbad97",
    "zipf:1.5": "47f06313188bb69d55b6703963b36743083e1785230ad4bf43d7d878b7650622",
}


def _cuts(t):
    for v in range(t.n_vertices):
        yield T.TreePoint.vertex(v)
    for c in range(1, t.n_vertices):
        for off in (0.0, t.length[c] / 3, t.length[c]):
            yield T.TreePoint.on_edge(c, off)


@pytest.mark.parametrize("spec", SPECS)
def test_descendant_subtrees(spec):
    trees = sorted(_trees(spec, 200, 200, seed=22), key=lambda t: -t.n_vertices)[:17]
    h = hashlib.sha256()
    for t in trees:
        for x in _cuts(t):
            _update(h, T.descendant_subtree(t, x))
    assert h.hexdigest() == CUTS[spec]


# input -> the exception class's name, or the edge lengths read
MALFORMED = {
    "": "NewickError", "(:1)": "NewickError", "((:1,:2):1": "NewickError",
    "(abc);": "NewickError", "(:1x);": "NewickError",
    "(:0);": "ValueError", "(:-1);": "ValueError",
    "(:inf);": "NewickError", "(:nan);": "NewickError", "(:1e400);": "ValueError",
    "(:1_0);": "NewickError", "(:.5);": [0.5], "(:+2);": [2.0],
}


@pytest.mark.parametrize("text", sorted(MALFORMED))
def test_malformed_input(text):
    try:
        got = from_newick(text).length[1:].tolist()
    except Exception as e:
        got = type(e).__name__
    assert got == MALFORMED[text]
