"""Acceptance suite: the thirteen distributional criteria at full scale.

Every tolerance is pinned here, one test per criterion, each printing one
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to watch).
All runs are seeded and deterministic; expensive samples are shared through
module fixtures.  Total runtime is dominated by the two Monte Carlo
attractor families and the n = 2e5 binary-tree samples (~10-15 minutes).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from igwlab import analytics as ana
from igwlab import experiments as xp
from igwlab import gof
from igwlab import sampler as smp
from igwlab.newick import from_newick
from igwlab.offspring import estimate_L, igw, zipf_critical

SEED = 20260810
N_BIG = 200_000
BUDGET = 1_000_000
Q23 = 2 / 3
Q23_SPEC = f"igw:{Q23!r}"


def _line(num, passed, msg):
    word = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:>2}] {word}: {msg}")
    assert passed, f"criterion {num}: {msg}"


# ------------------------------------------------------------------ #
# Shared heavy samples                                                #
# ------------------------------------------------------------------ #


@pytest.fixture(scope="module")
def stats_half():
    """n = 2e5 metric trees of the binary law at rate 1 (criteria 1, 3, 5)."""
    return smp.sample_stats(igw(0.5), SEED, N_BIG, budget=BUDGET, lam=1.0)


@pytest.fixture(scope="module")
def stats_twothirds():
    return smp.sample_stats(igw(Q23), SEED, N_BIG, budget=BUDGET, lam=1.0)


def _height_ks(st, q):
    hs = np.sort(st.heights[~st.censored])
    rng = None
    if st.censor_rate > 0:
        u = 1.0 - 10.0 * st.censor_rate
        hi = ((1.0 - u) ** (-(1.0 - q) / q) - 1.0) / (1.0 - q)
        rng = (0.0, hi)
    return gof.ks_statistic(hs, lambda x: ana.height_cdf(q, 1.0, x), rng), len(hs)


def _length_ks(st, q):
    ls = np.sort(st.lengths[~st.censored])
    hi = ana.length_cdf_grid_limit(q, 1.0)
    if st.censor_rate > 0:
        tail = 10.0 * st.censor_rate
        hi = min(hi, (1.0 / (tail * q ** q * math.gamma(1 - q))) ** (1.0 / q))
    D = gof.ks_statistic(ls, lambda x: ana.length_cdf_grid(q, 1.0, x), (0.0, hi))
    return D, hi


# ------------------------------------------------------------------ #
# 1. Height law                                                       #
# ------------------------------------------------------------------ #


def test_criterion_01_height_law(stats_half, stats_twothirds):
    D1, n1 = _height_ks(stats_half, 0.5)
    D2, n2 = _height_ks(stats_twothirds, Q23)
    xs = np.linspace(0.0, 50.0, 501)
    closed = np.max(np.abs(ana.height_cdf(0.5, 1.0, xs) - xs / (xs + 2.0)))
    ok = D1 <= 0.01 and D2 <= 0.01 and closed <= 1e-12
    _line(1, ok,
          f"height KS q=1/2: {D1:.5f} (n={n1}), q=2/3: {D2:.5f} (n={n2}), "
          f"both <= 0.01; |H - lx/(lx+2)| = {closed:.2e} <= 1e-12")


# ------------------------------------------------------------------ #
# 2. Height ODE                                                       #
# ------------------------------------------------------------------ #


def test_criterion_02_height_ode():
    grid = np.linspace(0.05, 10.0, 100)
    residuals = {q: ana.height_ode_max_residual(q, 1.0, grid)
                 for q in (0.5, Q23, 0.9)}
    ok = all(r <= 1e-8 for r in residuals.values())
    _line(2, ok, "ODE residual max |H' - lam q (1-H)^(1/q)| = "
          + ", ".join(f"q={q:g}: {r:.2e}" for q, r in residuals.items())
          + " (all <= 1e-8)")


# ------------------------------------------------------------------ #
# 3. Length law                                                       #
# ------------------------------------------------------------------ #


def test_criterion_03_length_law(stats_half, stats_twothirds):
    worst = max(
        max(abs(ana.length_pdf(0.5, 1.0, x) - ana.length_pdf_bessel_binary(1.0, x)),
            abs(ana.length_cdf(0.5, 1.0, x) - ana.length_cdf_bessel_binary(1.0, x)))
        for x in (0.5, 1.0, 2.0))
    D1, hi1 = _length_ks(stats_half, 0.5)
    D2, hi2 = _length_ks(stats_twothirds, Q23)
    ok = worst <= 1e-8 and D1 <= 0.012 and D2 <= 0.012
    _line(3, ok,
          f"series-vs-Bessel sup err {worst:.2e} <= 1e-8; length KS "
          f"q=1/2: {D1:.5f} on [0,{hi1:.1f}], q=2/3: {D2:.5f} on [0,{hi2:.1f}] "
          f"(<= 0.012)")


# ------------------------------------------------------------------ #
# 4. Length tail                                                      #
# ------------------------------------------------------------------ #


def test_criterion_04_length_tail():
    r50 = (1.0 - ana.length_cdf_bessel_binary(1.0, 50.0)) / ana.length_tail(0.5, 1.0, 50.0)
    ratios = [(1.0 - ana.length_cdf(Q23, 1.0, x)) / ana.length_tail(Q23, 1.0, x)
              for x in (10.0, 30.0, 50.0)]
    trend = abs(ratios[2] - 1) < abs(ratios[1] - 1) < abs(ratios[0] - 1)
    ok = 0.9 <= r50 <= 1.1 and trend
    _line(4, ok,
          f"q=1/2 tail ratio at x=50: {r50:.4f} in [0.9, 1.1]; q=2/3 ratios "
          f"{[round(r, 4) for r in ratios]} trend monotonically to 1: {trend}")


# ------------------------------------------------------------------ #
# 5. Size law                                                         #
# ------------------------------------------------------------------ #


def test_criterion_05_size_law(stats_half, stats_twothirds):
    exact_ok = True
    for qf in (Fraction(1, 2), Fraction(2, 3)):
        oracle = ana.size_pmf_oracle(igw(float(qf)), 30, exact=True)
        exact_ok &= all(oracle[n] == ana.size_pmf(qf, n) for n in range(1, 31))
    spots = (ana.size_pmf(Fraction(1, 2), 1) == Fraction(1, 2)
             and ana.size_pmf(Fraction(1, 2), 2) == 0
             and ana.size_pmf(Fraction(1, 2), 3) == Fraction(1, 8))
    verdicts = {}
    for st, qf in ((stats_half, Fraction(1, 2)), (stats_twothirds, Fraction(2, 3))):
        expected = np.array([0.0] + [float(ana.size_pmf(qf, n)) for n in range(1, 31)])
        edges = np.where(st.censored, 10 ** 9, st.edges)
        obs = np.bincount(np.minimum(edges, 31), minlength=32)
        stat, dof = gof.chi_square_pmf(obs, expected)
        verdicts[float(qf)] = (stat, dof, stat <= gof.chi_square_threshold(dof, 0.01))
    ok = exact_ok and spots and all(v[2] for v in verdicts.values())
    _line(5, ok,
          f"exact == oracle (n<=30, q=1/2 & 2/3): {exact_ok}; spot values "
          f"(1/2, 0, 1/8): {spots}; chi-square "
          + ", ".join(f"q={q:.3g}: {s:.1f} (dof {d})" for q, (s, d, _) in verdicts.items())
          + " non-rejected at 1%")


# ------------------------------------------------------------------ #
# 6. Size tail                                                        #
# ------------------------------------------------------------------ #


def test_criterion_06_size_tail():
    tail = 1 - ana.size_cdf(Fraction(1, 2), 1000)
    ratio = float(tail) / ana.size_tail(0.5, 1000.0)
    ok = abs(ratio - 1.0) <= 0.10
    _line(6, ok, f"exact-rational 1 - A(1000) vs asymptotic: ratio {ratio:.4f} "
          f"within 10%")


# ------------------------------------------------------------------ #
# 7. Pruning invariance                                               #
# ------------------------------------------------------------------ #


def test_criterion_07_pruning_invariance():
    spec = xp.ExperimentSpec(dist=Q23_SPEC, lam=1.0, phi="length",
                             survival_target=0.5, n=205_000, seed=SEED)
    out = xp.run_invariance(spec)
    off, rate = out["offspring"], out["rate"]
    enough = off.n >= 100_000
    hspec = spec.with_(phi="height", n=120_000)
    hout = xp.run_invariance(hspec)
    hratio = hout["rate"].details["ratio_closed_form"]
    ok = (off.passed and rate.passed and enough
          and hout["rate"].passed and abs(hratio - 1.0) <= 0.02)
    _line(7, ok,
          f"phi=length: offspring chi2 {off.statistic:.1f} <= {off.threshold:.1f} "
          f"(survivors {off.n}), rate off by {rate.statistic:.2%} <= 2%; "
          f"phi=height: closed-form rate off by {abs(hratio-1):.2%} <= 2%")


# ------------------------------------------------------------------ #
# 8. Binomial thinning at the first branch point                      #
# ------------------------------------------------------------------ #


def test_criterion_08_thinning():
    spec = xp.ExperimentSpec(dist="binary", lam=1.0, phi="length",
                             survival_target=0.5, n=100_000, seed=SEED)
    rep = xp.run_thinning(spec)
    _line(8, rep.passed,
          f"first-vertex (k,m) thinning chi2 {rep.statistic:.2f} <= "
          f"{rep.threshold:.2f} at 1% (survivors {rep.n}, p_hat "
          f"{rep.details['p_hat']:.3f})")


# ------------------------------------------------------------------ #
# 9. Attractors, deterministic                                        #
# ------------------------------------------------------------------ #


def test_criterion_09_attractor_deterministic():
    import time

    t0 = time.time()
    gz = ana.pushforward_offspring(zipf_critical(1.5), 1e-4).g0
    gg = ana.pushforward_offspring(xp.from_spec("geom:0.5"), 1e-4).g0
    gs = ana.pushforward_offspring(xp.from_spec("table:[0.6,0,0.4]"), 1e-4).g0
    dt = time.time() - t0
    ok = abs(gz - 2 / 3) <= 0.02 and abs(gg - 0.5) <= 0.02 and gs > 0.999 and dt < 60
    _line(9, ok,
          f"g0(1e-4): zipf(1.5) {gz:.4f} (|d|<=0.02 of 2/3), geometric {gg:.4f} "
          f"(of 1/2), subcritical {gs:.5f} > 0.999; runtime {dt:.1f}s")


# ------------------------------------------------------------------ #
# 10. Attractors, Monte Carlo + uniqueness falsification              #
# ------------------------------------------------------------------ #


def test_criterion_10_attractor_monte_carlo():
    # (a) iterated leaf pruning of a light-tailed law -> critical binary
    horton = xp.run_attractor_mc(
        xp.ExperimentSpec(dist="geom:0.3", phi="ord", n=300_000, seed=SEED,
                          chunk=16384), iterations=3)
    h_single = next(c for c in horton["comparisons"] if c["code"] == "(())")
    # (b) deep leaf-count pruning of the Zipf law -> q* = 1/alpha = 2/3
    zipf = xp.run_attractor_mc(
        xp.ExperimentSpec(dist="zipf:1.5", phi="leaves", survival_target=0.004,
                          n=800_000, seed=SEED, chunk=16384))
    z_single = next(c for c in zipf["comparisons"] if c["code"] == "(())")
    # (c) invariant control: frequencies already match and stay put across t
    ctrl = [xp.run_attractor_mc(
        xp.ExperimentSpec(dist=Q23_SPEC, phi="length", survival_target=tgt,
                          n=50_000, seed=SEED)) for tgt in (0.5, 0.2)]
    ctrl_single = [next(c for c in o["comparisons"] if c["code"] == "(())")["freq"]
                   for o in ctrl]
    stable = abs(ctrl_single[0] - ctrl_single[1]) <= 0.02
    # uniqueness falsification: two non-invariant critical laws must reject
    fals1 = xp.run_uniqueness_falsification(
        xp.ExperimentSpec(dist="zipf:1.5", phi="length", n=30_000, seed=SEED))
    fals2 = xp.run_uniqueness_falsification(
        xp.ExperimentSpec(dist="geom:0.5", phi="height", n=30_000, seed=SEED))
    ok = (not horton["starved"] and abs(h_single["freq"] - 0.5) <= 0.02
          and horton["passed"]
          and not zipf["starved"] and abs(z_single["freq"] - 2 / 3) <= 0.03
          and zipf["passed"]
          and all(o["passed"] for o in ctrl) and stable
          and fals1.passed and fals2.passed)
    _line(10, ok,
          f"R^3(geom): P(edge) {h_single['freq']:.4f} (1/2 +- 0.02, "
          f"{horton['survivors']} survivors); leaves(zipf): "
          f"{z_single['freq']:.4f} (2/3 +- 0.03, {zipf['survivors']} survivors); "
          f"control stable {ctrl_single[0]:.3f}/{ctrl_single[1]:.3f}; "
          f"falsification rejects: zipf {fals1.passed}, geometric {fals2.passed}")


# ------------------------------------------------------------------ #
# 11. Semigroup dichotomy                                             #
# ------------------------------------------------------------------ #


def test_criterion_11_semigroup():
    out = xp.run_semigroup(xp.ExperimentSpec(dist="igw:0.5", seed=SEED),
                           n_trees=1000, s=0.3, t2=0.3)
    ok = (out["height"]["violations"] == 0 and out["height"]["checked"] >= 990
          and out["ord"]["violations"] == 0
          and out["length"]["fixed_violates"])
    _line(11, ok,
          f"height: 0/{out['height']['checked']} violations (1e-9); ord: "
          f"0/{out['ord']['checked']}; length counterexample archived: "
          f"{out['length']['fixed_counterexample']} -> two-step "
          f"{out['length']['two_step']} vs one-step {out['length']['one_step']}")


# ------------------------------------------------------------------ #
# 12. Inverse-series coefficients                                     #
# ------------------------------------------------------------------ #


def test_criterion_12_lagrange():
    w = ana.lagrange_w_coeffs(Fraction(1, 2), 10)
    catalan = [1, -2, 5, -14, 42, -132, 429, -1430, 4862, -16796]
    coef_ok = [int(v) for v in w] == catalan
    residuals = {q: ana.lagrange_roundtrip_residual(q, 0.05)
                 for q in (0.5, Q23, 0.9)}
    ok = coef_ok and all(r <= 1e-10 for r in residuals.values())
    _line(12, ok,
          f"q=1/2 coefficients are signed Catalan numbers (n<=10): {coef_ok}; "
          "round-trip residuals "
          + ", ".join(f"q={q:g}: {r:.1e}" for q, r in residuals.items())
          + " (<= 1e-10)")


# ------------------------------------------------------------------ #
# 13. Bernoulli leaf coloring                                         #
# ------------------------------------------------------------------ #


def test_criterion_13_coloring():
    out = xp.run_coloring(xp.ExperimentSpec(dist="binary", p=0.5,
                                            n=100_000, seed=SEED))
    surv, thin = out["survival"], out["thinned"]
    inv = xp.run_coloring(xp.ExperimentSpec(dist=Q23_SPEC, p=0.7,
                                            n=60_000, seed=SEED))
    sweep = xp.run_coloring(xp.ExperimentSpec(dist="zipf:1.5", p=0.99,
                                              n=120_000, seed=SEED))
    g0 = sweep["g0_hat"]
    ok = (surv.passed and surv.statistic <= 0.01
          and out["adjudication"] == "thinned" and out["as_printed"]["rejected"]
          and inv["thinned"].passed
          and abs(g0 - 2 / 3) <= 0.05)
    _line(13, ok,
          f"binary p=1/2 survival off by {surv.statistic:.4f} <= 0.01 "
          f"(n={surv.n}); variant adjudication: {out['adjudication']} "
          f"(printed form sums to {out['as_printed']['pmf_sum']:.3f}); "
          f"q=2/3 invariance chi2 {inv['thinned'].statistic:.1f} <= "
          f"{inv['thinned'].threshold:.1f}; zipf p=0.99 attractor g0 "
          f"{g0:.4f} (2/3 +- 0.05)")
