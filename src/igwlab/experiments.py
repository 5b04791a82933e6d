"""Named, seeded, end-to-end verification experiments.

Each experiment reproduces one of the distributional claims at desk scale
and returns machine-readable reports: sample trees, transform them exactly,
compare against the closed forms with the gof utilities.  A spec plus the
code version fully determines every report (sampling is counter-based; the
tests never draw hidden randomness).

Conventions used throughout:

* Offspring comparisons read the *first* branch point of each (pruned,
  colored) tree: one independent draw of the offspring law per tree.
  Pooling all vertices of completed trees would bias the histogram by
  O(1/E[size]) (tree totals obey a hard linear constraint), which a large
  pooled sample reliably detects; one draw per tree is exactly multinomial.
* Censored replicates (node budget) are excluded and comparisons restricted
  to a range holding all but 10x the censored mass; reports carry the rate.
* Chi-square verdicts at fixed 1% significance; flake-sensitive callers run
  :func:`majority` over a few seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import analytics as ana
from . import gof
from . import pruning as pr
from . import sampler as smp
from .newick import from_newick, to_newick
from .offspring import IGW, OffspringDistribution, estimate_L, from_spec
from .trees import almost_isometric

__all__ = [
    "ExperimentSpec",
    "CensorRateError",
    "run_verify_height",
    "run_verify_length",
    "run_verify_size",
    "run_invariance",
    "run_uniqueness_falsification",
    "run_attractor_gf",
    "run_attractor_mc",
    "run_coloring",
    "run_semigroup",
    "majority",
    "passed",
    "threshold_for_survival",
    "LENGTH_SEMIGROUP_COUNTEREXAMPLE",
]

# Deterministic counterexample to the semigroup property of length pruning:
# S_1(S_1(T)) keeps a 0.6 path while S_2(T) keeps length 1 (see run_semigroup).
LENGTH_SEMIGROUP_COUNTEREXAMPLE = "((:1.2,:1.2,:1.2):1);"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines an experiment run."""

    dist: str = "igw:0.5"
    lam: float = 1.0
    phi: str = "height"
    threshold: float | None = None       # None = derive from survival_target
    survival_target: float = 0.5
    n: int = 100_000
    seed: int = 20260810
    budget: int = 1_000_000
    p: float = 0.5                       # coloring selection parameter
    max_censor_rate: float = 5e-3
    alpha: float = 0.01                  # significance for automated verdicts
    chunk: int = 8192

    def __post_init__(self):
        for name in ("n", "budget", "chunk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, not {getattr(self, name)!r}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, not {self.lam!r}")
        t = self.threshold   # None: derived from survival_target
        if t is not None and not (math.isfinite(t) and t > 0):
            raise ValueError(f"threshold must be finite and > 0, not {t!r}")
        for name in ("alpha", "survival_target"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1), not {getattr(self, name)!r}")

    def distribution(self) -> OffspringDistribution:
        return from_spec(self.dist)


def _require_igw(spec: ExperimentSpec) -> IGW:
    d = spec.distribution()
    if not isinstance(d, IGW):
        raise ValueError(f"this experiment needs an igw:<q> law, got {spec.dist}")
    return d


class CensorRateError(ValueError):
    """More replicates hit the node budget than the spec allows."""

    def __init__(self, rate: float, bound: float):
        super().__init__(f"censor rate {rate:g} above bound {bound:g}")
        self.rate, self.bound = rate, bound


def _censor_range(censor_rate: float, quantile):
    """Upper comparison limit: CDF already exceeds 1 - 10*censor_rate there."""
    if censor_rate == 0.0:
        return None
    return float(quantile(1.0 - 10.0 * censor_rate))


# --------------------------------------------------------------------- #
# Sampling-law verification                                               #
# --------------------------------------------------------------------- #


def run_verify_height(spec: ExperimentSpec) -> gof.GofReport:
    """KS of sampled heights against the closed-form height CDF."""
    d = _require_igw(spec)
    q = d.q
    st = smp.sample_stats(d, spec.seed, spec.n, budget=spec.budget, lam=spec.lam)
    if st.censor_rate > spec.max_censor_rate:
        raise CensorRateError(st.censor_rate, spec.max_censor_rate)
    hs = np.sort(st.heights[~st.censored])
    hi = _censor_range(
        st.censor_rate,
        lambda u: ((1.0 - u) ** (-(1.0 - q) / q) - 1.0) / (spec.lam * (1.0 - q)),
    )
    return gof.ks_report(
        f"height-law[{spec.dist},lam={spec.lam:g}]", hs,
        lambda x: ana.height_cdf(q, spec.lam, x), (0.0, hi) if hi is not None else None,
        alpha=spec.alpha, seed=spec.seed, censor_rate=st.censor_rate)


def run_verify_length(spec: ExperimentSpec) -> gof.GofReport:
    """KS of sampled total lengths against the series CDF.

    The comparison range is the smaller of the censoring-aware limit and
    :func:`analytics.length_cdf_grid_limit` (beyond it the grid evaluator
    would need extended precision per point).
    """
    d = _require_igw(spec)
    q = d.q
    st = smp.sample_stats(d, spec.seed, spec.n, budget=spec.budget, lam=spec.lam)
    if st.censor_rate > spec.max_censor_rate:
        raise CensorRateError(st.censor_rate, spec.max_censor_rate)
    ls = np.sort(st.lengths[~st.censored])
    hi = ana.length_cdf_grid_limit(q, spec.lam)
    if st.censor_rate > 0:
        tail = 10.0 * st.censor_rate
        hi = min(hi, (1.0 / (tail * (spec.lam * q) ** q * math.gamma(1 - q))) ** (1.0 / q))
    return gof.ks_report(
        f"length-law[{spec.dist},lam={spec.lam:g}]", ls,
        lambda x: ana.length_cdf_grid(q, spec.lam, x), (0.0, hi),
        alpha=spec.alpha, seed=spec.seed, censor_rate=st.censor_rate,
        range_coverage=float(np.searchsorted(ls, hi) / len(ls)))


def run_verify_size(spec: ExperimentSpec) -> gof.GofReport:
    """Chi-square of edge counts against the exact pmf for n <= 30 + tail.

    Prechecks that the closed form and the convolution oracle agree exactly
    (rational arithmetic) before using it as the expected pmf.  Censored
    trees are counted in the open bucket above 30 edges, so the budget
    must be at least 30.
    """
    d = _require_igw(spec)
    if spec.budget < 30:
        raise ValueError(f"the size law needs budget >= 30, not {spec.budget}: "
                         "censored trees are counted as having more than 30 edges")
    qf = Fraction(d.q).limit_denominator(10 ** 6)
    exact = abs(float(qf) - d.q) < 1e-15
    if exact:
        oracle = ana.size_pmf_oracle(d, 30, exact=True)
        pmf = [ana.size_pmf(qf, n) for n in range(1, 31)]
        if any(oracle[n] != pmf[n - 1] for n in range(1, 31)):
            raise AssertionError("size law disagree with the convolution oracle")
        expected = np.array([0.0] + [float(v) for v in pmf])
    else:
        expected = np.array([0.0] + [ana.size_pmf(d.q, n) for n in range(1, 31)])
    st = smp.sample_stats(d, spec.seed, spec.n, budget=spec.budget)
    edges = np.where(st.censored, 10 ** 9, st.edges)  # censored trees: > 30
    obs = np.bincount(np.minimum(edges, 31), minlength=32)
    return gof.chi_square_report(f"size-law[{spec.dist}]", obs, expected, alpha=spec.alpha,
                                 seed=spec.seed, oracle_checked=exact)


# --------------------------------------------------------------------- #
# Threshold calibration                                                   #
# --------------------------------------------------------------------- #


def _as_power_family_q(d: OffspringDistribution) -> float | None:
    """q when the law is the invariant family (critical binary included)."""
    if isinstance(d, IGW):
        return d.q
    probs = getattr(d, "probs", None)
    if probs is not None and len(probs) == 3 and probs[0] == 0.5 and probs[2] == 0.5:
        return 0.5
    return None


def _phi_lam(spec: ExperimentSpec) -> float | None:
    """The rate to sample at when only spec.phi reads lengths: an additive
    functional needs them, a constant one prunes shapes alike."""
    return spec.lam if pr.phi_by_name(spec.phi).law == "additive" else None


def _threshold(spec: ExperimentSpec) -> float:
    return spec.threshold if spec.threshold is not None else threshold_for_survival(spec)


def threshold_for_survival(spec: ExperimentSpec, pilot_n: int = 20000) -> float:
    """A threshold making P(pruned tree nonempty) hit survival_target.

    height: closed form.  length: the survival event is total length > t,
    so t is the corresponding quantile of the series CDF.  leaves/ord:
    empirical quantile of the survival statistic on a pilot sample (integer
    thresholds).
    """
    d = spec.distribution()
    tgt = spec.survival_target
    q = _as_power_family_q(d)
    if spec.phi == "height" and q is not None:
        return (tgt ** (-(1.0 - q) / q) - 1.0) / (spec.lam * (1.0 - q))
    if spec.phi == "length" and q is not None:
        lo, hi = 0.0, 1.0
        while 1.0 - ana.length_cdf(q, spec.lam, hi) > tgt:
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if 1.0 - ana.length_cdf(q, spec.lam, mid) > tgt:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    stats = []
    for forest, cen in smp.iter_forest(d, spec.seed + 1, pilot_n, budget=spec.budget,
                                       lam=_phi_lam(spec), chunk=spec.chunk):
        stats.append(pr.survival_statistics(forest, spec.phi)[~cen])
    stats = np.sort(np.concatenate(stats))
    t = float(stats[int((1.0 - tgt) * len(stats))])
    if spec.phi in ("leaves", "ord"):
        t = max(1.0, round(t))
    return t


# --------------------------------------------------------------------- #
# One chunk loop for the pruning and coloring verdicts                    #
# --------------------------------------------------------------------- #


_SMALL = 5  # reduced trees of at most this many edges are tallied by shape


@dataclass
class Tally:
    """Accumulated over the reduced trees of a sampled forest."""

    n_trees: int = 0
    n_censored: int = 0
    n_survived: int = 0
    branching: np.ndarray = field(default_factory=lambda: np.zeros(256, dtype=np.int64))
    # survivors of at most _SMALL reduced edges, by (edges, first-branch degree)
    small: np.ndarray = field(
        default_factory=lambda: np.zeros((_SMALL + 1, _SMALL + 1), dtype=np.int64))
    edge_lengths: list = field(default_factory=list)
    thinning: dict = field(default_factory=dict)   # (k, m) -> count, m >= 1 exact cells

    @property
    def p_hat(self) -> float:
        return self.n_survived / max(self.n_trees - self.n_censored, 1)


def _tally(spec: ExperimentSpec, reduce, lam: float | None,
           pool_lengths: bool = False) -> Tally:
    """One pass over the spec's forest, reducing chunk by chunk.

    ``reduce(forest, base)`` reduces a chunk whose first replicate is
    ``base``; the tally reads only the reduction's columns.  Lengths are
    sampled at ``lam`` (None: shapes only) and pooled on request.
    """
    s = Tally()
    base = 0
    for forest, cen in smp.iter_forest(spec.distribution(), spec.seed, spec.n,
                                       budget=spec.budget, lam=lam, chunk=spec.chunk):
        s.n_trees += len(forest)
        s.n_censored += int(cen.sum())
        if forest.R:
            red = reduce(forest, base)
            surv = red.survived
            s.n_survived += int(surv.sum())
            fb = red.first_branch[surv]
            s.branching += np.bincount(np.minimum(fb, 255), minlength=256)
            edges = red.red_edges[surv]
            small = edges <= _SMALL
            s.small += np.bincount((_SMALL + 1) * edges[small] + fb[small],
                                   minlength=s.small.size).reshape(s.small.shape)
            if isinstance(red, pr.PrunedForest):
                km, cnt = np.unique(np.stack((red.k1[surv], red.m1[surv]), axis=1),
                                    axis=0, return_counts=True)
                for (k, m), c in zip(km.tolist(), cnt.tolist()):
                    s.thinning[(k, m)] = s.thinning.get((k, m), 0) + c
            if pool_lengths:
                s.edge_lengths.append(red.pooled_lengths())
        base += len(forest)
    return s


def _pruner(spec: ExperimentSpec, threshold: float):
    return lambda forest, base: pr.PrunedForest(forest, spec.phi, threshold)


# --------------------------------------------------------------------- #
# Pruning invariance and its falsification                                #
# --------------------------------------------------------------------- #


def run_invariance(spec: ExperimentSpec) -> dict:
    """Pruned survivors of an invariant law keep their offspring law and get
    rate lam * p_t^((1-q)/q): chi-square on the first branch point plus the
    exponential-rate fit, at a threshold hitting the survival target.
    """
    d = _require_igw(spec)
    q = d.q
    t = _threshold(spec)
    s = _tally(spec, _pruner(spec, t), spec.lam, pool_lengths=True)
    shape_rep = gof.chi_square_report(
        f"prune-invariance-offspring[{spec.dist},phi={spec.phi},t={t:.4g}]", s.branching,
        d.pmf_array(255), alpha=spec.alpha, seed=spec.seed, p_hat=s.p_hat)
    lens = np.concatenate(s.edge_lengths) if s.edge_lengths else np.zeros(0)
    rate, ci = gof.fit_exponential_rate(lens)
    pred = spec.lam * s.p_hat ** ((1.0 - q) / q)
    ratio = rate / pred
    details = {
        "rate": rate, "rate_ci": ci, "predicted": pred, "p_hat": s.p_hat,
        "n_edges": len(lens), "seed": spec.seed,
    }
    if spec.phi == "height":
        closed = spec.lam / (spec.lam * (1.0 - q) * t + 1.0)
        details["predicted_closed_form"] = closed
        details["ratio_closed_form"] = rate / closed
    rate_rep = gof.GofReport(
        test=f"prune-invariance-rate[{spec.dist},phi={spec.phi},t={t:.4g}]",
        statistic=abs(ratio - 1.0), threshold=0.02, passed=abs(ratio - 1.0) <= 0.02,
        n=len(lens), details=details,
    )
    return {"offspring": shape_rep, "rate": rate_rep, "threshold": t, "summary": s,
            "passed": shape_rep.passed and rate_rep.passed}


def run_uniqueness_falsification(spec: ExperimentSpec) -> gof.GofReport:
    """Non-invariant input: the pruned offspring law must differ.

    Pass = chi-square *rejection* of the original law on pruned survivors
    (the invariance property singles out the one-parameter family).
    """
    d = spec.distribution()
    if isinstance(d, IGW):
        raise ValueError("falsification needs a critical non-invariant law")
    if not d.is_critical:
        raise ValueError("falsification is about critical laws")
    t = _threshold(spec)
    s = _tally(spec, _pruner(spec, t), _phi_lam(spec))
    return gof.chi_square_report(
        f"uniqueness-falsification[{spec.dist},phi={spec.phi},t={t:.4g}]", s.branching,
        d.pmf_array(255), alpha=spec.alpha, seed=spec.seed, reject=True, p_hat=s.p_hat)


def run_thinning(spec: ExperimentSpec) -> gof.GofReport:
    """First-branch-point joint (k, m) frequencies against binomial thinning.

    Conditioned on survival, P(k, m) = C(k,m) (1-p_t)^(k-m) p_t^m q_k / p_t
    exactly for every cell with m >= 1 (m surviving subtrees force the whole
    tree to survive).  The m = 0 and no-branch outcomes depend on the
    functional and are lumped into one remainder cell with probability
    (p_t - 1 + Q(1-p_t))/p_t; the empirical survival rate stands in for p_t.
    """
    d = spec.distribution()
    t = _threshold(spec)
    s = _tally(spec, _pruner(spec, t), _phi_lam(spec))
    if not s.n_survived:
        raise ValueError(f"no tree survived the pruning at t={t:.4g}")
    p = s.p_hat
    kmax = max((k for k, m in s.thinning), default=2)
    cells = [(k, m) for k in range(2, kmax + 1) for m in range(1, k + 1)
             if d.pmf(k) > 0]
    probs = []
    obs = []
    for (k, m) in cells:
        probs.append(math.comb(k, m) * (1 - p) ** (k - m) * p ** m * d.pmf(k) / p)
        obs.append(s.thinning.get((k, m), 0))
    lump_p = max(0.0, 1.0 - sum(probs))
    lump_o = s.n_survived - sum(obs)
    expected = np.asarray(probs + [lump_p])
    return gof.chi_square_report(
        f"binomial-thinning[{spec.dist},phi={spec.phi},t={t:.4g}]", obs + [lump_o],
        expected / expected.sum(), alpha=spec.alpha, seed=spec.seed, p_hat=p,
        cells=len(cells) + 1)


# --------------------------------------------------------------------- #
# Attractors                                                              #
# --------------------------------------------------------------------- #


def run_attractor_gf(spec: ExperimentSpec) -> dict:
    """Deterministic pushforward sweep p -> 0: g_0 and the distance of the
    pruned offspring law to the predicted limit family member."""
    d = spec.distribution()
    cls = d.classify()
    rows = []
    if cls == "critical":
        qstar = estimate_L(d).attractor_q
        target = IGW(qstar).pmf_array(64)
    else:
        qstar = None
        target = np.zeros(65)
        target[0] = 1.0
    for p in (1e-1, 1e-2, 1e-3, 1e-4):
        law = ana.pushforward_offspring(d, p)
        rows.append({
            "p": p,
            "g0": law.g0,
            "sup_dist_to_target": float(np.max(np.abs(law.pmf - target))),
            "rate_multiplier": law.rate_multiplier,
            "normalization_defect": law.normalization_defect,
        })
    g0_final = rows[-1]["g0"]
    expect = (1.0 / (2.0 - estimate_L(d).L)) if cls == "critical" else 1.0
    return {
        "dist": spec.dist,
        "classification": cls,
        "attractor_q": qstar,
        "rows": rows,
        "g0_final": g0_final,
        "g0_expected": expect,
        "passed": abs(g0_final - expect) <= (0.02 if cls == "critical" else 1e-3),
    }


def _shape_predictions(q: float) -> dict:
    """Probabilities of the four smallest planted shapes under the family,
    keyed by (reduced edges, first-branch degree, canonical code).

    single edge, cherry, the 3-star, and the 5-edge caterpillar; the
    caterpillar's two sibling orderings give the factor 2.  Every vertex
    above the stem of a series-reduced planted tree branches, so one of at
    most 5 edges is fixed by its edge count and first-branch degree.
    """
    d = IGW(q)
    q0, q2, q3 = d.pmf(0), d.pmf(2), d.pmf(3)
    return {
        (1, 0, "(())"): q0,
        (3, 2, "((()()))"): q2 * q0 ** 2,
        (4, 3, "((()()()))"): q3 * q0 ** 3,
        (5, 2, "((()(()())))"): 2 * q2 ** 2 * q0 ** 3,
    }


def run_attractor_mc(spec: ExperimentSpec, iterations: int | None = None) -> dict:
    """Monte Carlo attractor check: prune deep, compare small-shape
    frequencies of survivors to the predicted limit family member.

    With ``iterations`` the pruning is that many rounds of leaf pruning,
    which needs phi = "ord"; otherwise a single threshold (spec.threshold or
    calibrated to spec.survival_target).
    """
    if iterations is not None and spec.phi != "ord":
        raise ValueError(f"rounds of leaf pruning need phi ord, not {spec.phi}")
    if iterations is not None and iterations < 1:
        raise ValueError(f"iterations must be >= 1, not {iterations!r}")
    qstar = estimate_L(spec.distribution()).attractor_q
    if iterations is not None:
        t0 = float(iterations)  # k rounds of leaf pruning = ord threshold k
        tlabel = f"R^{iterations}"
    else:
        t0 = _threshold(spec)
        tlabel = f"t={t0:.4g}"
    s = _tally(spec, _pruner(spec, t0), _phi_lam(spec))
    n_surv = s.n_survived
    if n_surv < 1000:
        return {"passed": False, "starved": True, "survivors": n_surv,
                "required_n": int(spec.n * 1000 / max(n_surv, 1))}
    comp = []
    ok = True
    for (edges, branch, code), pred in _shape_predictions(qstar).items():
        f = int(s.small[edges, branch]) / n_surv
        tol = spec_tolerance_for(pred)
        good = abs(f - pred) <= tol
        ok &= good
        comp.append({"code": code, "freq": f, "predicted": pred,
                     "tol": tol, "passed": good})
    return {
        "dist": spec.dist, "phi": spec.phi, "label": tlabel,
        "attractor_q": qstar, "survivors": n_surv, "n": s.n_trees,
        "censor_rate": s.n_censored / max(s.n_trees, 1),
        "comparisons": comp, "passed": ok, "starved": False, "seed": spec.seed,
    }


def spec_tolerance_for(pred: float) -> float:
    """Shape-frequency tolerance: +-0.02 for large cells down to +-0.005."""
    return max(0.005, min(0.03, 0.05 * pred + 0.015))


# --------------------------------------------------------------------- #
# Bernoulli leaf coloring                                                 #
# --------------------------------------------------------------------- #


def run_coloring(spec: ExperimentSpec) -> dict:
    """Coloring experiment: survival vs. the fixed point, first-branch-point
    law vs. the two published-formula variants (adjudication), plus the
    p -> 1 attractor estimate via the single-edge frequency."""
    d = spec.distribution()
    g_pred = ana.coloring_survival(d, spec.p)
    _, pmf_thin, _ = ana.coloring_offspring(d, spec.p, "thinned")
    _, pmf_printed, _ = ana.coloring_offspring(d, spec.p, "as-printed")
    color_seed = spec.seed ^ 0xC01031
    # live tree r of the chunk draws from stream base + r; coloring reads no length
    s = _tally(spec, lambda forest, base: pr.color_forest(
        forest.live(), spec.p, color_seed, replicate0=base), None)
    branch, n_surv, ntot = s.branching, s.n_survived, s.n_trees - s.n_censored
    g_hat = s.p_hat
    surv_rep = gof.GofReport(
        test=f"coloring-survival[{spec.dist},p={spec.p:g}]",
        statistic=abs(g_hat - g_pred), threshold=0.01,
        passed=abs(g_hat - g_pred) <= 0.01, n=ntot,
        details={"g_hat": g_hat, "g_predicted": g_pred, "seed": spec.seed},
    )
    thin_rep = gof.chi_square_report(f"coloring-offspring-thinned[{spec.dist},p={spec.p:g}]",
                                     branch, pmf_thin, alpha=spec.alpha, seed=spec.seed)
    printed_sum = float(pmf_printed.sum())
    printed = {"pmf_sum": printed_sum}
    if 0.99 < printed_sum < 1.01:
        stat_p, dof_p = gof.chi_square_pmf(branch, pmf_printed / printed_sum)
        printed.update(statistic=stat_p, dof=dof_p,
                       rejected=stat_p > gof.chi_square_threshold(dof_p, spec.alpha))
    else:
        printed.update(rejected=True, reason="variant does not normalize")
    g0_hat = int(branch[0]) / max(n_surv, 1)
    return {
        "survival": surv_rep,
        "thinned": thin_rep,
        "as_printed": printed,
        "adjudication": "thinned" if (thin_rep.passed and printed["rejected"]) else "inconclusive",
        "g0_hat": g0_hat,
        "passed": surv_rep.passed and thin_rep.passed,
    }


# --------------------------------------------------------------------- #
# Semigroup dichotomy                                                     #
# --------------------------------------------------------------------- #


_SEMIGROUP_STEPS = (0.3, 0.3)  # S_t2 o S_s against S_(s+t2), height and length
_SEMIGROUP_ATOL = 1e-9


def _composes(forest, phi: str, s: float, t2: float, atol: float):
    """Per slot of a chunk, lazily: whether S_t2 o S_s equals S_(s+t2) there."""
    two = pr.PrunedForest(pr.PrunedForest(forest, phi, s).reduced(), phi, t2).reduced()
    one = pr.PrunedForest(forest, phi, s + t2).reduced()
    return (almost_isometric(a, b, atol) for a, b in zip(two, one))


def run_semigroup(spec: ExperimentSpec) -> dict:
    """Composition law of the pruning operator per functional, on spec.n
    sampled trees, one chunk in memory at a time.

    height: S_t o S_s = S_(s+t) exactly (continuous semigroup); ord with
    integer thresholds: discrete semigroup; length: fails, and both a fixed
    counterexample and a random search report one (its rank among live trees).
    """
    (s, t2), atol = _SEMIGROUP_STEPS, _SEMIGROUP_ATOL
    steps = {"height": (s, t2), "ord": (1.0, 1.0)}
    bad = dict.fromkeys(steps, 0)
    checked = 0
    found = None
    for forest, _ in smp.iter_forest(spec.distribution(), spec.seed, spec.n,
                                     budget=spec.budget, lam=spec.lam, chunk=spec.chunk):
        live = forest.live()
        for phi, (a, b) in steps.items():
            bad[phi] += sum(not eq for eq in _composes(live, phi, a, b, atol))
        if found is None:
            found = next((checked + i for i, eq in enumerate(
                _composes(live, "length", s, t2, atol)) if not eq), None)
        checked += live.R
    results = {phi: {"checked": checked, "violations": v, "passed": v == 0}
               for phi, v in bad.items()}
    fixed = from_newick(LENGTH_SEMIGROUP_COUNTEREXAMPLE)
    eq_fixed, two, one = pr.semigroup_check(fixed, "length", 1.0, 1.0, atol)
    results["length"] = {
        "fixed_counterexample": LENGTH_SEMIGROUP_COUNTEREXAMPLE,
        "fixed_violates": not eq_fixed,
        "two_step": to_newick(two),
        "one_step": to_newick(one),
        "random_counterexample_index": found,
        "passed": (not eq_fixed),
    }
    results["passed"] = all(v["passed"] for v in results.values() if isinstance(v, dict))
    return results


# --------------------------------------------------------------------- #
# Aggregation                                                             #
# --------------------------------------------------------------------- #


def passed(out) -> bool:
    """The verdict of an experiment's result: a GofReport or a dict with "passed"."""
    return bool(out.passed if isinstance(out, gof.GofReport) else out["passed"])


def majority(fn, spec: ExperimentSpec, seeds=(1, 2, 3, 4, 5)):
    """Run an experiment whose result has a boolean verdict over several
    seeds; majority vote suppresses the 1%-level flake rate."""
    outcomes = []
    for s in seeds:
        out = fn(replace(spec, seed=spec.seed + s))
        outcomes.append((s, passed(out), out))
    votes = sum(1 for _, p, _ in outcomes if p)
    return votes * 2 > len(outcomes), outcomes
