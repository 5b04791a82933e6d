"""Newick text and canonical codes pinned byte for byte.

Sibling order in the Newick output is the canonical order, so a change to
the order shows here as a changed digest.  Sampled forests are pinned by
the SHA-256 of their texts and codes, joined by newlines; the hand-built
trees, whose equal-code siblings tie on their own edge length and differ
only deeper down, are pinned by their full text.  The values were recorded
before the canonical order was computed by one level sweep.
"""

import hashlib

import pytest

from igwlab.newick import from_newick, to_newick
from igwlab.offspring import from_spec
from igwlab.sampler import sample_forest


def _sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


# spec, seed -> (newick, canonical code), 200 trees at budget 1e4, lambda 1
FORESTS = {
    ("binary", 8101): ("2e67d6abb82df4f0d62eb7c76c26e4aff8d8588165b698aec7ff70235a58413b",
                       "c6de217793daf26e25c3e7d4be0e73dea824b5955e1d22949a4221997c74c8f5"),
    ("igw:0.6666666666666666", 8102): (
        "75b2d07824990e55e0e1502807b1f1e68ef37819f75f79a3f3030699b89dd3a3",
        "e9d3228c5a3577156519b441e903d52f53a3ba33bf6d168afc73f642e7288fc3"),
}


@pytest.mark.parametrize("spec,seed", sorted(FORESTS))
def test_sampled_forest(spec, seed):
    trees, _ = sample_forest(from_spec(spec), seed, 200, lam=1.0, budget=10 ** 4)
    live = [t for t in trees if t is not None]
    newick, code = FORESTS[spec, seed]
    assert _sha("\n".join(to_newick(t) for t in live).encode()) == newick
    assert _sha(b"\n".join(t.canonical_code() for t in live)) == code
    assert _sha(b"\n".join(t.shape().canonical_code() for t in live)) == code


# two sibling permutations of one tree -> (text, canonical code)
TIES = [
    (("(((:1,:5):2,(:2,:3):2):1);", "(((:3,:2):2,(:5,:1):2):1);"),
     "(((:1.0,:5.0):2.0,(:2.0,:3.0):2.0):1.0);", b"(((()())(()())))"),
    (("(((:0.5,(:1,:2):1):1,(:0.5,(:1,:1.5):1):1):1);",
      "((((:1.5,:1):1,:0.5):1,((:2,:1):1,:0.5):1):1);"),
     "(((:0.5,(:1.0,:1.5):1.0):1.0,(:0.5,(:1.0,:2.0):1.0):1.0):1.0);",
     b"(((()(()()))(()(()()))))"),
    (("((((:1,:2):1,:1):1,((:1,:3):1,:1):1):1,(((:1,:2):1,:1):1,((:1,:2.5):1,:1):1):1,:4);",
      "(:4,((:1,(:2.5,:1):1):1,(:1,(:2,:1):1):1):1,((:1,(:3,:1):1):1,(:1,(:2,:1):1):1):1);"),
     "(:4.0,((:1.0,(:1.0,:2.0):1.0):1.0,(:1.0,(:1.0,:2.5):1.0):1.0):1.0,"
     "((:1.0,(:1.0,:2.0):1.0):1.0,(:1.0,(:1.0,:3.0):1.0):1.0):1.0);",
     b"(()((()(()()))(()(()())))((()(()()))(()(()()))))"),
    (("(((:1,:2):1,(:1,:2):1,(:1,:1.5):1):1);", "(((:2,:1):1,(:1.5,:1):1,(:2,:1):1):1);"),
     "(((:1.0,:1.5):1.0,(:1.0,:2.0):1.0,(:1.0,:2.0):1.0):1.0);", b"(((()())(()())(()())))"),
]


@pytest.mark.parametrize("inputs,text,code", TIES)
def test_equal_code_siblings_ordered_by_deeper_lengths(inputs, text, code):
    for s in inputs:
        t = from_newick(s)
        assert to_newick(t) == text
        assert t.canonical_code() == t.shape().canonical_code() == code
