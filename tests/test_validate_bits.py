"""Validated construction pinned bit for bit.

A tree built from a parent array handed in from outside (``validate=True``)
is relabeled breadth-first: the root first, then level by level, the
children of each vertex in the order of their input labels.  The tree tests
check the result only up to isometry, so these pin ``parent``, ``length``
and ``gen_starts()``, bytes and dtypes, by SHA-256: shuffled labelings of
sampled trees (metric and shape-only, with the root kept at 0 and moved
elsewhere), the sampled trees' own breadth-first arrays, and a 3,000-level
path in order and shuffled.  The messages of the three rejected inputs are
pinned too.  The values were recorded while the relabeling walked a
breadth-first queue vertex by vertex.
"""

import hashlib

import numpy as np
import pytest

from igwlab import trees as T
from igwlab.offspring import from_spec
from igwlab.rng import CounterStream
from igwlab.sampler import sample_forest

SPECS = ("binary", "igw:0.7", "zipf:1.5")


def _trees(spec, lam, n=150, budget=2000, seed=31):
    trees, _ = sample_forest(from_spec(spec), seed, n, budget=budget, lam=lam)
    return [t for t in trees if t is not None]


def _update(h, t):
    arrays = [t.parent, t.gen_starts()]
    if isinstance(t, T.MetricTree):
        arrays.append(t.length)
    for a in arrays:
        h.update(f"{a.dtype.str}:{len(a)}\0".encode() + a.tobytes())


def _digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        _update(h, t)
    return h.hexdigest()


def _relabel(t, r, keep_root):
    """Tree ``t`` with its vertices relabeled by a permutation drawn from
    stream (5, r); ``keep_root`` leaves the root at 0."""
    n = t.n_vertices
    perm = np.argsort(CounterStream(5, r).uniforms(n), kind="stable")
    if keep_root:
        perm = np.concatenate(([0], perm[perm != 0]))
    parent = np.empty(n, dtype=np.int64)
    parent[perm] = np.where(t.parent < 0, -1, perm[t.parent])
    if isinstance(t, T.MetricTree):
        length = np.empty(n)
        length[perm] = t.length
        return T.MetricTree(parent, length)
    return T.CombinatorialTree(parent)


def _shuffled(trees, keep_root):
    return (_relabel(t, r, keep_root) for r, t in enumerate(trees))


# (spec, lam) -> digests of the shuffled trees with the root at 0, with the
# root elsewhere, and of the trees rebuilt from their own arrays
SHUFFLED = {
    ("binary", 1.0): (
        "d1965723971c4364d341af6f69e5a10ab2f6771ec7d18fc7b9ba25499e1db6c2",
        "cbd94297b27864de4caf6b08d1e50c6be04512c459c39bc1edfc18fc4f610cd5",
        "7345d39402070e10d716d39d264574d28d212d35264f318b92f73f60718ca88e",
    ),
    ("igw:0.7", 1.0): (
        "85745c239d3c38530daac734eedd6d84fb04cfb394ec2d8701b0446fdec1d069",
        "5c004a967d971176a0c3281468f83dd1a2655639c3e50b80552197e1025ca441",
        "dd31b745c34d04aea5e9cee15d643e35bc5553b13fce5871ef4cf2f104bba6ef",
    ),
    ("zipf:1.5", 1.0): (
        "bd6700b5f582e54122df1595fe117d60c31e8b6f097d120d5a661c5af3ec68f4",
        "a1b0dae5f18765c914c3e89495c06ec01be404a1fd0c66349b10ab723f9c91db",
        "c31c15e810bf5b71d799066f5beaa8547f8c862ddad88773396f3d17ff76d5a2",
    ),
    ("binary", None): (
        "8ecdde72e50fb651ddcbc35592fec8a17125c81499227c47353c22d04e5047e0",
        "4b233700524cdf094aaffeb6415545d62362d2108cb55057381ff82ba599021e",
        "a1ce2a9f2465b180a28e99f6b1cffe8874ca71e468c1611d3c99e7888fc6d594",
    ),
    ("igw:0.7", None): (
        "e0e972fdce1b7800a7b422491b3ab07f048c638550b390b7423c6e292e9003bb",
        "04a77889bad67f00aab6f6d0c151dc05001b6e3d35943dafee3cf4ebdaac1fa3",
        "acb5ef02e997581d608d7bad49bf9cf59ef9282ccef3d210bb4ec8ec02202192",
    ),
    ("zipf:1.5", None): (
        "aa4a251618b56eba8030b8523b9e370f130107f7c5d15eda60fc46f04600598a",
        "00c173e5c2b3c1a9311df1150fb6cff927309c804ce3d0fae83f943a474cfebd",
        "6c1df21b236554177688f4d4b37b17e7080f477a2b0ed90fee2743b8aedf9fc7",
    ),
}


def _rebuilt(t):
    if isinstance(t, T.MetricTree):
        return T.MetricTree(t.parent, t.length)
    return T.CombinatorialTree(t.parent)


@pytest.mark.parametrize("spec, lam", sorted(SHUFFLED, key=str))
def test_relabeled_trees(spec, lam):
    trees = _trees(spec, lam)
    got = (_digest(_shuffled(trees, True)), _digest(_shuffled(trees, False)),
           _digest(map(_rebuilt, trees)))
    assert got == SHUFFLED[spec, lam]


# the 3,000-level path in order, then shuffled with the root elsewhere
PATH = ("110c1a1c47331724ee98a5f2b8df969f181de8b4ef89c7f24128f65dcdccb665",) * 2


def test_deep_path():
    n = 3001
    path = T.MetricTree(np.arange(-1, n - 1), np.linspace(1.0, 2.0, n))
    assert len(path.gen_starts()) == n + 1
    got = (_digest([path]), _digest([_relabel(path, 0, False)]))
    assert got == PATH


# input parent array -> the message of the ValueError it raises
REJECTED = {
    "two roots": ([-1, 0, -1, 1], "expected exactly one root, found 2"),
    "index out of range": ([-1, 0, 4, 1], "parent index out of range"),
    "cycle": ([-1, 0, 3, 2, 1], "parent structure is not a connected tree"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected(case):
    parent, message = REJECTED[case]
    with pytest.raises(ValueError) as e:
        T.MetricTree(parent, np.ones(len(parent)))
    assert str(e.value) == message
    with pytest.raises(ValueError) as e:
        T.CombinatorialTree(parent)
    assert str(e.value) == message
