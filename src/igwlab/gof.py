"""Goodness-of-fit utilities that turn Monte Carlo output into verdicts.

Everything is deterministic given (samples, parameters): tests never draw
randomness of their own.  Verdicts use a significance level alpha (1% by
default); experiments that want flake resistance run several seeds and take
the majority.  When samples were censored (node budget), the KS comparison
is restricted to a range where the analytic CDF already holds all but a
multiple of the censored mass, so censoring cannot flip a verdict.

Every KS and chi-square verdict is built in one place, :func:`ks_report`
and :func:`chi_square_report`: statistic, threshold at alpha and verdict
in one :class:`GofReport`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "GofReport",
    "ks_report",
    "chi_square_report",
    "ks_statistic",
    "ks_threshold",
    "chi_square_pmf",
    "chi_square_threshold",
    "merge_tail_buckets",
    "fit_exponential_rate",
]


@dataclass
class GofReport:
    """One statistical verification: statistic, threshold, verdict."""

    test: str
    statistic: float
    threshold: float
    passed: bool
    n: int
    comparison_range: tuple | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        d = dict(
            test=self.test,
            statistic=self.statistic,
            threshold=self.threshold,
            passed=bool(self.passed),
            n=self.n,
            comparison_range=self.comparison_range,
            details={k: _jsonable(v) for k, v in self.details.items()},
        )
        return json.dumps(d)

    def __str__(self):
        rng = f" on {self.comparison_range}" if self.comparison_range else ""
        word = "PASS" if self.passed else "FAIL"
        return (f"[{word}] {self.test}: stat={self.statistic:.5g} "
                f"thr={self.threshold:.5g} n={self.n}{rng}")


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


# --------------------------------------------------------------------- #
# Kolmogorov-Smirnov                                                      #
# --------------------------------------------------------------------- #


def ks_statistic(samples: np.ndarray, cdf, comparison_range: tuple | None = None) -> float:
    """sup |F_n - F| over the samples, optionally restricted to a range.

    ``samples`` must be sorted; ``cdf`` maps a float array to CDF values.
    With a range (lo, hi), the sup runs over sample points inside it while
    the empirical CDF keeps the full denominator, which is the right
    restriction for censoring-aware comparisons.
    """
    samples = np.asarray(samples)
    n = len(samples)
    if n < 100:
        raise ValueError("need at least 100 samples")
    if np.any(np.diff(samples) < 0):
        raise ValueError("samples must be sorted")
    lo_i, hi_i = 0, n
    if comparison_range is not None:
        lo, hi = comparison_range
        if not lo < hi:
            raise ValueError("empty comparison range")
        lo_i = int(np.searchsorted(samples, lo, side="left"))
        hi_i = int(np.searchsorted(samples, hi, side="right"))
        if hi_i <= lo_i:
            raise ValueError("no samples inside the comparison range")
    xs = samples[lo_i:hi_i]
    F = np.asarray(cdf(xs), dtype=np.float64)
    upper = (np.arange(lo_i + 1, hi_i + 1)) / n - F
    lower = F - np.arange(lo_i, hi_i) / n
    return float(max(upper.max(), lower.max()))


def ks_threshold(n: int, alpha: float = 0.01) -> float:
    """Asymptotic one-sample KS critical value at level alpha."""
    return float(np.sqrt(-0.5 * np.log(alpha / 2.0)) / np.sqrt(n))


def ks_report(test: str, samples: np.ndarray, cdf, comparison_range: tuple | None, *,
              alpha: float, seed: int, **details) -> GofReport:
    """KS verdict of sorted ``samples`` against ``cdf``, passed at most at
    the threshold; details: the given ones, then the samples' seed."""
    stat = ks_statistic(samples, cdf, comparison_range)
    thr = ks_threshold(len(samples), alpha)
    return GofReport(test, stat, thr, stat <= thr, len(samples), comparison_range,
                     {**details, "seed": seed})


# --------------------------------------------------------------------- #
# Chi-square with tail merging                                            #
# --------------------------------------------------------------------- #


def merge_tail_buckets(expected_probs: np.ndarray, n: int, min_expected: float = 5.0):
    """Group categories 0.. into buckets with expected count >= min_expected.

    Walks categories in order, closing a bucket as soon as it holds enough
    expected mass; whatever remains (including the implicit tail beyond the
    listed categories) joins the final bucket, so no mass is discarded.
    Returns (bucket_bounds, bucket_probs): bucket i covers categories
    bounds[i] .. bounds[i+1]-1, the final bucket open-ended.
    """
    expected_probs = np.asarray(expected_probs, dtype=np.float64)
    if np.any(expected_probs < -1e-15):
        raise ValueError("negative expected probability")
    bounds = [0]
    probs = []
    acc = 0.0
    for k, pk in enumerate(expected_probs):
        acc += max(pk, 0.0)
        if acc * n >= min_expected:
            bounds.append(k + 1)
            probs.append(acc)
            acc = 0.0
    tail = acc + max(0.0, 1.0 - float(expected_probs.sum()))
    if probs and (tail * n < min_expected):
        # fold the deficient remainder into the last bucket
        probs[-1] += tail
        bounds[-1] = None
    else:
        probs.append(tail)
        bounds.append(None)
    if len(probs) < 2:
        raise ValueError("fewer than two buckets have enough expected mass")
    return bounds, np.asarray(probs)


def chi_square_pmf(observed_counts: np.ndarray, expected_probs: np.ndarray,
                   min_expected: float = 5.0):
    """Pearson statistic against a pmf, with tail-bucket merging.

    ``observed_counts[k]`` are counts of category k (anything beyond the
    array implicitly lands in the final open bucket via the total).
    Returns (statistic, dof) with dof = buckets - 1.
    """
    observed_counts = np.asarray(observed_counts, dtype=np.float64)
    n = float(observed_counts.sum())
    bounds, probs = merge_tail_buckets(expected_probs, n, min_expected)
    obs = []
    for i in range(len(probs)):
        lo = bounds[i]
        hi = bounds[i + 1]
        if hi is None:
            obs.append(observed_counts[lo:].sum())
        else:
            obs.append(observed_counts[lo:hi].sum())
    obs = np.asarray(obs)
    exp = probs * n
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, len(probs) - 1


def chi_square_threshold(dof: int, alpha: float = 0.01) -> float:
    """Upper-alpha quantile of chi-square with ``dof`` degrees of freedom."""
    return float(special.chdtri(dof, alpha))


def chi_square_report(test: str, observed_counts: np.ndarray, expected_probs: np.ndarray, *,
                      alpha: float, seed: int, reject: bool = False, **details) -> GofReport:
    """Chi-square verdict of counts against a pmf, passed at most at the
    threshold or, with ``reject`` (a falsification), above it; details: dof,
    the given ones, ``rejected`` (``reject`` only), then the samples' seed."""
    stat, dof = chi_square_pmf(observed_counts, expected_probs)
    thr = chi_square_threshold(dof, alpha)
    verdict = {"rejected": stat > thr} if reject else {}
    return GofReport(test, stat, thr, stat > thr if reject else stat <= thr,
                     int(np.sum(observed_counts)),
                     details={"dof": dof, **details, **verdict, "seed": seed})


# --------------------------------------------------------------------- #
# Exponential rate                                                        #
# --------------------------------------------------------------------- #


def fit_exponential_rate(lengths: np.ndarray, conf: float = 0.95):
    """MLE rate = 1/mean with an exact Gamma interval.

    The sum of n Exp(rate) variables is Gamma(n, 1/rate), so
    rate * sum ~ Gamma(n, 1), giving interval quantile(.)/sum.
    Degenerate (constant) samples raise: no rate information.
    """
    x = np.asarray(lengths, dtype=np.float64)
    n = len(x)
    if n < 100:
        raise ValueError("need at least 100 lengths")
    if np.any(x <= 0):
        raise ValueError("lengths must be positive")
    s = float(x.sum())
    if float(x.max()) == float(x.min()):
        raise ValueError("degenerate sample: all lengths equal")
    a = (1.0 - conf) / 2.0
    lo = float(special.gammaincinv(n, a) / s)
    hi = float(special.gammainccinv(n, a) / s)
    return n / s, (lo, hi)
