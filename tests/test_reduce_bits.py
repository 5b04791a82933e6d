"""Reduced trees pinned bit for bit.

The forest-against-trees tests compare two outputs of the same engine, so
they cannot see a change of layout that both sides share.  These pin every
reduced tree's ``parent``, ``length`` and ``gen_starts()``, bytes and
dtypes, by SHA-256: the one-tree calls on small sampled trees (metric and
shape-only), and every survivor of a pruned or colored chunk, sampled at
node budget 300 so that the chunks have censored slots.  The digests were
recorded when each reduced tree was still built vertex by vertex and then
relabeled breadth-first.
"""

import hashlib

import numpy as np
import pytest

from igwlab import pruning as P
from igwlab import trees as T
from igwlab.offspring import from_spec
from igwlab.rng import CounterStream
from igwlab.sampler import iter_forest, sample_forest


def _trees(dist, lam=1.0, seed=11, n=120):
    trees, _ = sample_forest(from_spec(dist), seed, n, budget=300, lam=lam)
    return [t for t in trees if t is not None]


def _digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        arrays = [t.parent, t.gen_starts()]
        if isinstance(t, T.MetricTree):
            arrays.append(t.length)
        for a in arrays:
            h.update(f"{a.dtype.str}:{len(a)}\0".encode() + a.tobytes())
    return h.hexdigest()


ONE_TREE = {
    "gdp-height": "738853ada14fe9e505f6b835d3e8385e7f9ff6aaf52f45049cfb73a7132ab679",
    "gdp-length": "0f57cfb96ab2709777d60f2b430a025bd0f9f90e0df4bb8e11f251991ca83b76",
    "gdp-leaves": "b3846b60827200c38e28d610349266b48ec0536cff2b4b93f97ff9e59aa8f7ef",
    "gdp-ord": "07c9862b9baffd7e7f0b74abbc291db74cd57af7310961a67c18cbd97d6138e0",
    "color": "030649dc2a2954579985c43700a1e218482fe448a5a8abba80469fdce3d59fee",
    "horton-metric": "a7d97cd8f354d73817023ba24cbe999e2885121264ceda8e7b22cf56865b74b2",
    "horton-shape": "cb710f11276ef59467f879c9373b34e829bcf3d2212c02fb936ec926671645b3",
    "series-metric": "08b417f20140e115115972ee2e475feae402c70543ba98d3c067f0833226c149",
    "series-shape": "a9dcba8072b2e19ef6f6a2c4c20693ab002adbd368a514c7eef2befa8afef312",
    "hereditary": "d554bdd3867a2c0c55c348c408b0abe8c7146ae758f6be175212aa65da38a810",
}


def _one_tree(case):
    if case.startswith("gdp"):
        phi = case[4:]
        thr = {"height": 1.0, "length": 2.5, "leaves": 3.0, "ord": 2.0}[phi]
        return [P.gdp_prune(t, phi, thr).tree for t in _trees("igw:0.7")]
    if case == "color":
        return [P.bernoulli_color(t, 0.5, CounterStream(5, i, domain=7)).tree
                for i, t in enumerate(_trees("igw:0.7"))]
    lam = 1.0 if case.endswith("metric") else None
    if case.startswith("horton"):
        return [P.horton_prune(t) for t in _trees("igw:0.7", lam)]
    if case.startswith("series"):
        # geom:0.5 has vertices of one child, so most trees are not reduced
        return [T.series_reduce(t) for t in _trees("geom:0.5", lam)]
    small = [t for t in _trees("igw:0.7", seed=12) if t.n_vertices <= 30]
    return [P.hereditary_reduce(t, lambda s: s.tree_height() >= 0.8).tree for t in small]


@pytest.mark.parametrize("case", sorted(ONE_TREE))
def test_one_tree(case):
    assert _digest(_one_tree(case)) == ONE_TREE[case]


CHUNKED = {
    ("binary", 7, "color"): "bdb25bac5bfca6319ec1f3ce7c13c1fd77a04239832fa6de008945e8322cc569",
    ("binary", 7, "height"): "45f57201798abc8a3be8bf21854dba84ce21ed9a0fffb0166e67c235f62266bf",
    ("binary", 7, "leaves"): "8bbd461ecf52eed71dbd8814415fdb43e5f74b6348e61225ec35832646332ea4",
    ("binary", 7, "length"): "05949f2abbe648addcceed1c93fb149a7b87bf8aa4374c9b01ae1ecb61cc5229",
    ("binary", 7, "ord"): "c13bfd4abcaee4899351d52a976a8d659114a5d9b13a4f28aca1d9fe36ae522c",
    ("binary", 512, "color"): "bdb25bac5bfca6319ec1f3ce7c13c1fd77a04239832fa6de008945e8322cc569",
    ("binary", 512, "height"): "45f57201798abc8a3be8bf21854dba84ce21ed9a0fffb0166e67c235f62266bf",
    ("binary", 512, "leaves"): "8bbd461ecf52eed71dbd8814415fdb43e5f74b6348e61225ec35832646332ea4",
    ("binary", 512, "length"): "05949f2abbe648addcceed1c93fb149a7b87bf8aa4374c9b01ae1ecb61cc5229",
    ("binary", 512, "ord"): "c13bfd4abcaee4899351d52a976a8d659114a5d9b13a4f28aca1d9fe36ae522c",
    ("igw:0.7", 7, "color"): "b780da8c109188756d03e035b04b9bb8a7b2b0de5cae06c7c012fdc2bc69b59f",
    ("igw:0.7", 7, "height"): "3754e0deb287c22399d4dc951d491f6f24e7dba821ebc51b072f998e92a82d60",
    ("igw:0.7", 7, "leaves"): "8c55ea81c8db31568030920487ede891bd5169a004aefd484b9868d3aab80e18",
    ("igw:0.7", 7, "length"): "051b0f91509dd42bd41a20f29f66bc34e29935a1ff2d3bf75ee554a02bf95973",
    ("igw:0.7", 7, "ord"): "1db5e652d69911a543d5cf8be323ad7dc1f4c7f2c58b873e2edbb7368a432419",
    ("igw:0.7", 512, "color"): "b780da8c109188756d03e035b04b9bb8a7b2b0de5cae06c7c012fdc2bc69b59f",
    ("igw:0.7", 512, "height"):
        "3754e0deb287c22399d4dc951d491f6f24e7dba821ebc51b072f998e92a82d60",
    ("igw:0.7", 512, "leaves"):
        "8c55ea81c8db31568030920487ede891bd5169a004aefd484b9868d3aab80e18",
    ("igw:0.7", 512, "length"):
        "051b0f91509dd42bd41a20f29f66bc34e29935a1ff2d3bf75ee554a02bf95973",
    ("igw:0.7", 512, "ord"): "1db5e652d69911a543d5cf8be323ad7dc1f4c7f2c58b873e2edbb7368a432419",
}
THRESHOLDS = {"height": 1.5, "length": 3.0, "leaves": 3.0, "ord": 1.0}


@pytest.mark.parametrize("dist,chunk,op", sorted(CHUNKED))
def test_chunk_survivors(dist, chunk, op):
    out = []
    censored = 0
    for lo, (forest, cen) in zip(range(0, 1200, chunk),
                                 iter_forest(from_spec(dist), 21, 1200, budget=300, lam=1.0,
                                             chunk=chunk)):
        censored += int(cen.sum())
        if op == "color":
            red = P.color_forest(forest, 0.5, 9, replicate0=lo)
        else:
            red = P.PrunedForest(forest, op, THRESHOLDS[op])
        out += [red.extract_reduced(int(i)) for i in np.flatnonzero(red.survived)]
    assert censored > 0 and len(out) > 0
    assert _digest(out) == CHUNKED[dist, chunk, op]
