"""Sampled forest chunks and summary statistics pinned bit for bit.

Every verdict reads the sampler's chunks through their columns, so the
order in which a chunk lays out its vertices, and which of them it drops
for censored trees, must not change.  These pin ``parent``, ``length``,
``tree``, ``level_starts``, ``slots`` and ``censored``, bytes and dtypes,
by SHA-256, for every chunk ``iter_forest`` yields: six laws, metric and
shape-only, over (budget, chunk) pairs that give an all-censored chunk
(budget 1), chunks of one tree and partly censored chunks.  The values were
recorded when the sampler handed per-level rows to a separate layout step.

``sample_stats`` is pinned the same way: ``censored``, ``edges``,
``heights``, ``lengths`` and ``offspring_hist`` for the same laws over
(n, budget) pairs from no replicate to 300,000, which spans several
chunks.  These values were recorded when ``sample_stats`` drew its chunks
in its own loop, in one process.
"""

import hashlib

import pytest

from igwlab.offspring import from_spec
from igwlab.sampler import iter_forest, sample_stats

SPECS = ("binary", "igw:0.5", "igw:0.8", "zipf:1.5", "geom:0.3", "table:[0.55,0,0.35,0.1]")
# (n, budget, chunk); at budget 1 a tree of more than one edge is censored,
# so chunks of one tree are often all censored
CASES = ((16, 1, 1), (20, 1, 8), (12, 10_000, 1), (60, 40, 16), (90, 400, 32), (50, 5000, 50))
# (n, budget) for sample_stats: no replicate, all censored, partly censored,
# and several chunks
STATS_CASES = ((0, 10), (16, 1), (60, 40), (2000, 5000), (300_000, 30))


def _update(h, a):
    h.update(f"{a.dtype.str}:{len(a)}\0".encode() + a.tobytes())


def _digest(spec, lam) -> str:
    h = hashlib.sha256()
    for n, budget, chunk in CASES:
        for forest, cen in iter_forest(from_spec(spec), 17, n, budget=budget, lam=lam,
                                       chunk=chunk):
            assert forest.censored is cen
            for a in (forest.parent, forest.length, forest.tree, forest.level_starts,
                      forest.slots, forest.censored):
                _update(h, a)
    return h.hexdigest()


def _stats_digest(spec, lam) -> str:
    h = hashlib.sha256()
    for n, budget in STATS_CASES:
        st = sample_stats(from_spec(spec), 17, n, budget=budget, lam=lam)
        for a in (st.censored, st.edges, st.heights, st.lengths, st.offspring_hist):
            if a is None:   # heights and lengths of a shape-only draw
                assert lam is None
                h.update(b"None\0")
            else:
                _update(h, a)
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


# (spec, lam) -> digest over every sample of STATS_CASES
STATS_DIGESTS = {
    ("binary", 1.0): "2dac685a4c927efbe32d3b15475d1aa8d8faf61f463b4bc6a9c3bdddb5546eaa",
    ("binary", None): "f5e60965c374eb5a039805160cc1b366b6465e24cf0771215a7b91809b9b500d",
    ("igw:0.5", 1.0): "2dac685a4c927efbe32d3b15475d1aa8d8faf61f463b4bc6a9c3bdddb5546eaa",
    ("igw:0.5", None): "f5e60965c374eb5a039805160cc1b366b6465e24cf0771215a7b91809b9b500d",
    ("igw:0.8", 1.0): "9b05739a9ee6c552be3e0f2f9ef18a4c61eb1d81e2b27743eb8500e707f73644",
    ("igw:0.8", None): "0af03ac0df9d10b7ecdf62efad68c86b7eff437916c6ffca8669026ec6ecb5af",
    ("zipf:1.5", 1.0): "db7e9cfdcd09606fbebf8ae8cdf317fb4cae943301e23d06ab27778e4825fc46",
    ("zipf:1.5", None): "dd4c112941e6939163121c3d14b64715745f44b44f65a5815d6f7cfd33de05e5",
    ("geom:0.3", 1.0): "65bd3b3447b435ce0888dcc177cf27a60cb89f972334db34ac009f3ec9cc587a",
    ("geom:0.3", None): "16bb2dfc2c6d89b0dd0403ded30d60e745cc2e15d94b6f60bdc7aa541b002a1a",
    ("table:[0.55,0,0.35,0.1]", 1.0):
        "6e7c991eddee939a81df68565a611c79465d2b37cf87912b597467d0ae9f0a9a",
    ("table:[0.55,0,0.35,0.1]", None):
        "48de2a32ff595fbcaa22faab7eedf7d3320e35f57220eb202b39b156c7712a88",
}


@pytest.mark.parametrize("lam", [1.0, None], ids=["metric", "shape"])
@pytest.mark.parametrize("spec", SPECS)
def test_stats_columns(spec, lam):
    assert _stats_digest(spec, lam) == STATS_DIGESTS[spec, lam]
