"""Sampled forest chunks pinned bit for bit.

Every verdict reads the sampler's chunks through their columns, so the
order in which a chunk lays out its vertices, and which of them it drops
for censored trees, must not change.  These pin ``parent``, ``length``,
``tree``, ``level_starts``, ``slots`` and ``censored``, bytes and dtypes,
by SHA-256, for every chunk ``iter_forest`` yields: six laws, metric and
shape-only, over (budget, chunk) pairs that give an all-censored chunk
(budget 1), chunks of one tree and partly censored chunks.  The values were
recorded when the sampler handed per-level rows to a separate layout step.
"""

import hashlib

import pytest

from igwlab.offspring import from_spec
from igwlab.sampler import iter_forest

SPECS = ("binary", "igw:0.5", "igw:0.8", "zipf:1.5", "geom:0.3", "table:[0.55,0,0.35,0.1]")
# (n, budget, chunk); at budget 1 a tree of more than one edge is censored,
# so chunks of one tree are often all censored
CASES = ((16, 1, 1), (20, 1, 8), (12, 10_000, 1), (60, 40, 16), (90, 400, 32), (50, 5000, 50))


def _digest(spec, lam) -> str:
    h = hashlib.sha256()
    for n, budget, chunk in CASES:
        for forest, cen in iter_forest(from_spec(spec), 17, n, budget=budget, lam=lam,
                                       chunk=chunk):
            assert forest.censored is cen
            for a in (forest.parent, forest.length, forest.tree, forest.level_starts,
                      forest.slots, forest.censored):
                h.update(f"{a.dtype.str}:{len(a)}\0".encode() + a.tobytes())
    return h.hexdigest()


# (spec, lam) -> digest over every chunk of CASES; igw:0.5 is the binary law
DIGESTS = {
    ("binary", 1.0): "2e89c1c639b25cd3cddcb6d990add4f2b39fd243eb438ffd018bae77f16aa9fc",
    ("binary", None): "72c6076d2421eaf6f06be9873e172a1b5142156a948bb292dd3519bc36fd7da5",
    ("igw:0.5", 1.0): "2e89c1c639b25cd3cddcb6d990add4f2b39fd243eb438ffd018bae77f16aa9fc",
    ("igw:0.5", None): "72c6076d2421eaf6f06be9873e172a1b5142156a948bb292dd3519bc36fd7da5",
    ("igw:0.8", 1.0): "aa60fa770246d13a6237c04400b6dea8ab45a3f0edb1dfe9500fa9ffe543cdbd",
    ("igw:0.8", None): "b8b4fa53ad90d832fbc5983cc88a10df3c1fe5bff6f85b6e9673c600f5d8c7b6",
    ("zipf:1.5", 1.0): "150ee590bbf77753c305c5b393e0322403601eefd730641b1b1909de2e85d9a7",
    ("zipf:1.5", None): "63d50fc248031eee461287040de7dd1289780f11b972ce1b4b5a649b7225ef32",
    ("geom:0.3", 1.0): "623cb483a81b4444e791476946f2c0b258f92c9b94d292f1dae9cc792333f795",
    ("geom:0.3", None): "a88088b1fc44e3bafb77eb1a5acad48f38b8059a2967dfc3317bf311f94bba9e",
    ("table:[0.55,0,0.35,0.1]", 1.0):
        "b187f883851755bc8c66ce38fa0848eeb04247701f7915b330700736eb2e8c31",
    ("table:[0.55,0,0.35,0.1]", None):
        "17145184317ff85d2a1a6953cd6d07defcdbf86e32531c7ecbd483b8aa3deba2",
}


@pytest.mark.parametrize("lam", [1.0, None], ids=["metric", "shape"])
@pytest.mark.parametrize("spec", SPECS)
def test_chunk_columns(spec, lam):
    assert _digest(spec, lam) == DIGESTS[spec, lam]
