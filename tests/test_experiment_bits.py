"""Experiment outputs pinned bit for bit.

Small specs at node budget 300, so every one of them censors trees; each
runs in under a second.  Floats are pinned by ``float.hex`` and counts
exactly.  The values were recorded before the pruning and coloring
experiments were merged into one chunk loop that reads the engine's
columns, when coloring still sampled edge lengths and the attractor check
still built a tree per small survivor.  The attractor's frequencies were
then computed as (c / L) * (L / n) and may differ from c / n in the last
bit, so its shape counts c are pinned instead.
"""

from dataclasses import replace

import pytest

from igwlab import experiments as xp

Q23 = "igw:0.6666666666666666"
SPEC = xp.ExperimentSpec(n=6000, budget=300, chunk=2048)


def _hex(**kw):
    return {k: float(v).hex() for k, v in kw.items()}


THINNING = {
    ("binary", "length", None, 5): (2714, {"statistic": "0x1.ab8ac18349006p+3",
                                           "p_hat": "0x1.e633f3d16c067p-2"}),
    ("zipf:1.5", "leaves", 3.0, 6): (815, {"statistic": "0x1.807d5f4ba36b0p+4",
                                           "p_hat": "0x1.1831d9c0a7c5ep-3"}),
}


@pytest.mark.parametrize("dist,phi,t,seed", sorted(THINNING, key=str))
def test_thinning(dist, phi, t, seed):
    rep = xp.run_thinning(replace(SPEC, dist=dist, phi=phi, threshold=t, seed=seed))
    assert (rep.n, _hex(statistic=rep.statistic, p_hat=rep.details["p_hat"])) == (
        THINNING[dist, phi, t, seed])


# (live trees, survivors) and the floats; 284 and 40 trees are censored
COLORING = {
    ("binary", 0.5, 5): ((5716, 4028), {"survival": "0x1.3cf4eaba2eb00p-9",
                                        "g_hat": "0x1.68ccf17d3925dp-1",
                                        "thinned": "0x1.e6980619ee371p+4",
                                        "g0_hat": "0x1.163e89c998c95p-1"}),
    ("zipf:1.5", 0.9, 7): ((5960, 1040), {"survival": "0x1.6e2e702acce00p-12",
                                          "g_hat": "0x1.655e7f24149e1p-3",
                                          "thinned": "0x1.d4f5da16c9330p+3",
                                          "g0_hat": "0x1.7b91b91b91b92p-1"}),
}


@pytest.mark.parametrize("dist,p,seed", sorted(COLORING))
def test_coloring(dist, p, seed):
    out = xp.run_coloring(replace(SPEC, dist=dist, p=p, seed=seed))
    surv, thin = out["survival"], out["thinned"]
    got = _hex(survival=surv.statistic, g_hat=surv.details["g_hat"],
               thinned=thin.statistic, g0_hat=out["g0_hat"])
    assert ((surv.n, thin.n), got) == COLORING[dist, p, seed]


# (trees, censored, survivors, pooled edges) and the floats
INVARIANCE = {
    (Q23, "length", None, 5): ((6000, 58, 2952, 14539), {
        "offspring": "0x1.171cfb923e0fap+4", "rate": "0x1.3cdbb859b4c00p-8",
        "fit": "0x1.672265a78104fp-1", "threshold": "0x1.4a8d9be050e28p+0"}),
    ("igw:0.5", "height", 1.5, 8): ((6000, 295, 3127, 23487), {
        "offspring": "0x1.9f9b239cc6c65p+4", "rate": "0x1.2653213761bc0p-5",
        "fit": "0x1.22b7cdaec4706p-1", "threshold": "0x1.8000000000000p+0"}),
}


@pytest.mark.parametrize("dist,phi,t,seed", sorted(INVARIANCE, key=str))
def test_invariance(dist, phi, t, seed):
    out = xp.run_invariance(replace(SPEC, dist=dist, phi=phi, threshold=t, seed=seed))
    s, rate = out["summary"], out["rate"]
    got = _hex(offspring=out["offspring"].statistic, rate=rate.statistic,
               fit=rate.details["rate"], threshold=out["threshold"])
    assert ((s.n_trees, s.n_censored, s.n_survived, rate.n), got) == (
        INVARIANCE[dist, phi, t, seed])
    assert out["offspring"].n == s.n_survived


FALSIFY = {
    ("zipf:1.5", "length", 2.0, 5): (1737, {"statistic": "0x1.0853d403caac5p+5",
                                            "p_hat": "0x1.2a63346fd4b5fp-2"}),
    ("geom:0.5", "leaves", 4.0, 9): (1145, {"statistic": "0x1.06d2471943bf3p+8",
                                            "p_hat": "0x1.91abfb70854e5p-3"}),
}


@pytest.mark.parametrize("dist,phi,t,seed", sorted(FALSIFY))
def test_uniqueness_falsification(dist, phi, t, seed):
    rep = xp.run_uniqueness_falsification(
        replace(SPEC, dist=dist, phi=phi, threshold=t, seed=seed))
    assert (rep.n, _hex(statistic=rep.statistic, p_hat=rep.details["p_hat"])) == (
        FALSIFY[dist, phi, t, seed])


# (n, survivors, censor rate, verdict) and the counts of the four shapes
ATTRACTOR = {
    (Q23, "length", None, None, 4000, 5): (
        (4000, 1981, "0x1.0e5604189374cp-7", True), (1356, 200, 33, 66)),
    ("geom:0.3", "ord", None, 1, 8000, 6): (
        (8000, 2957, "0x1.34395810624ddp-5", False), (1724, 372, 40, 173)),
    ("zipf:1.5", "leaves", 2.0, None, 6000, 7): (
        (6000, 1195, "0x1.b4e81b4e81b4fp-8", False), (895, 104, 20, 25)),
}


@pytest.mark.parametrize("dist,phi,t,iterations,n,seed", sorted(ATTRACTOR, key=str))
def test_attractor_mc(dist, phi, t, iterations, n, seed):
    out = xp.run_attractor_mc(replace(SPEC, dist=dist, phi=phi, threshold=t, n=n, seed=seed),
                              iterations=iterations)
    head, counts = ATTRACTOR[dist, phi, t, iterations, n, seed]
    surv = out["survivors"]
    assert (out["n"], surv, out["censor_rate"].hex(), out["passed"]) == head
    comp = out["comparisons"]
    assert [c["code"] for c in comp] == ["(())", "((()()))", "((()()()))", "((()(()())))"]
    assert [c["freq"] for c in comp] == [c / surv for c in counts]
