"""Offspring laws, their generating functions, and regularity functionals.

Every distribution here has q1 = 0 (so sampled trees are reduced) and knows
how to evaluate, besides its pmf and generating function Q, the quantities
that the tree-reduction theory runs on:

* ``q_minus_z(z)``   : Q(z) - z, evaluated *stably* near z = 1 where the
  naive subtraction loses all digits (Q(z) - z vanishes to second order at
  1 for critical laws);
* ``one_minus_qprime(z)`` : 1 - Q'(z), same story;
* ``g_value(x)``     : the factor g in Q(x) - x = (1-x)^2 g(x), by two
  independent routes (closed/eval route vs. the tail-sum power series);
* ``tail_prob(j)``, ``tail_mean(j)`` : P(X >= j) and E[X; X >= j] in exact
  or analytically-completed form, which drive both the series route and the
  Lambda estimator.

The regularity exponent L is the limit of ln g(x) / (-ln(1-x)) as x -> 1-,
estimated from probe points x = 1 - 10^-j; for laws with infinite second
moment the companion exponent Lambda = lim k P(X>=k)/E[X; X>=k] is also
estimated, and the two are tied by 1/(2-L) = 1-Lambda.  (The printed source
for the Lambda relation carries a sign typo; the form implemented here is
the one consistent with the Zipf case L = 2 - alpha.)

Families: the one-parameter power family with Q(z) = z + q(1-z)^(1/q)
(q in [1/2,1), the fixed points of the pruning theory; "igw" in CLI specs),
critical binary, Zipf-critical, geometric-critical, and finite tables.
Each law is built one way, by its class (``IGW(q)``, ``ZipfCritical(alpha)``,
``GeometricCritical(r)``, ``FiniteTable(probs)``) or by a spec string
through :func:`from_spec` (``"binary"`` is ``FiniteTable([0.5, 0, 0.5])``),
and read through its methods (``d.pmf(k)``, ``d.classify()``).  All
instances are immutable value objects; estimators are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import gammaln, logsumexp

__all__ = [
    "OffspringDistribution",
    "IGW",
    "FiniteTable",
    "ZipfCritical",
    "GeometricCritical",
    "from_spec",
    "g_value",
    "RegularityProfile",
    "estimate_L",
    "estimate_Lambda",
]

_CRIT_TOL = 1e-9
# g_series stops at a relative truncation bound of this, or after this many terms
_G_SERIES_TOL = 1e-14
_G_SERIES_MAX_TERMS = 100_000


# --------------------------------------------------------------------- #
# Base class                                                              #
# --------------------------------------------------------------------- #


class OffspringDistribution:
    """Common interface; subclasses fill in the family-specific math."""

    name = "abstract"

    # -- pmf ------------------------------------------------------------- #

    def pmf(self, k: int) -> float:
        raise NotImplementedError

    def pmf_array(self, kmax: int) -> np.ndarray:
        """pmf on 0..kmax inclusive."""
        return np.array([self.pmf(k) for k in range(kmax + 1)])

    def pmf_fraction(self, k: int) -> Fraction:
        """The pmf as an exact rational (oracle support)."""
        return Fraction(self.pmf(k))

    def mean(self) -> float:
        raise NotImplementedError

    def classify(self) -> str:
        m = self.mean()
        if m < 1.0 - _CRIT_TOL:
            return "subcritical"
        if m > 1.0 + _CRIT_TOL:
            return "supercritical"
        return "critical"

    @property
    def is_critical(self) -> bool:
        return self.classify() == "critical"

    @property
    def has_infinite_second_moment(self) -> bool:
        raise NotImplementedError

    # -- generating function ---------------------------------------------- #

    def Q(self, z: float) -> float:
        raise NotImplementedError

    def log_Q_derivs(self, z: float, m_max: int) -> np.ndarray:
        """out[m] = log Q^(m)(z) for 2 <= m <= m_max, overflow-safe; -inf
        where it vanishes.  out[0] and out[1] are nan."""
        raise NotImplementedError

    def q_minus_z(self, z: float) -> float:
        """Q(z) - z without cancellation near z = 1."""
        raise NotImplementedError

    def one_minus_qprime(self, z: float) -> float:
        """1 - Q'(z) without cancellation near z = 1 (critical laws)."""
        raise NotImplementedError

    # -- tails ------------------------------------------------------------- #

    def tail_prob(self, j: int) -> float:
        """P(X >= j), exact/analytic."""
        raise NotImplementedError

    def tail_mean(self, j: int) -> float:
        """E[X 1{X >= j}], exact/analytic."""
        raise NotImplementedError

    # -- derived functionals ----------------------------------------------- #

    def g_value(self, x: float) -> float:
        """g(x) = (Q(x) - x)/(1-x)^2, stable route."""
        if x >= 1.0:
            raise ValueError("g is defined for x < 1")
        return self.q_minus_z(x) / (1.0 - x) ** 2

    def g_series_coeff(self, m: int) -> float:
        """Power-series coefficient of g: E[(X - m - 1)_+], via tail sums."""
        return self.tail_mean(m + 2) - (m + 1) * self.tail_prob(m + 2)

    def g_series(self, x: float) -> float:
        """g(x) summed from its series; independent of the Q route.

        Coefficients are nonincreasing toward 0, so the geometric bound
        c_m x^m / (1-x) controls truncation.
        """
        if not 0.0 <= x < 1.0:
            raise ValueError("series route needs 0 <= x < 1")
        total = 0.0
        xm = 1.0
        for m in range(_G_SERIES_MAX_TERMS):
            c = self.g_series_coeff(m)
            total += c * xm
            if c * xm <= _G_SERIES_TOL * max(total, 1e-300) * (1.0 - x):
                return total
            xm *= x
        raise ArithmeticError(f"g series did not converge within {_G_SERIES_MAX_TERMS} terms")

    def assumption_ratio(self, x: float) -> float:
        """(Q(x) - x) / ((1-x)(1 - Q'(x))) -- the regularity-limit probe."""
        return self.q_minus_z(x) / ((1.0 - x) * self.one_minus_qprime(x))

    # -- sampling support ---------------------------------------------------- #

    def pmf_tail_iter(self, k0: int):
        """Yield (k, pmf(k)) for k = k0, k0+1, ... (table overflow path)."""
        k = k0
        while True:
            yield k, self.pmf(k)
            k += 1

    @property
    def params(self) -> tuple:
        """The parameters that fix the law; caches are keyed on them."""
        raise NotImplementedError

    def spec_string(self) -> str:
        """A :func:`from_spec` string that rebuilds exactly this law."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"


# --------------------------------------------------------------------- #
# The invariant one-parameter family                                     #
# --------------------------------------------------------------------- #


class IGW(OffspringDistribution):
    """Critical law with Q(z) = z + q(1-z)^(1/q), q in [1/2, 1).

    q0 = q, q1 = 0, q2 = (1-q)/2q, and for k >= 2 the pmf follows the ratio
    recurrence q_{k+1}/q_k = (k - 1/q)/(k + 1), which is overflow-free for
    any k (the Gamma-ratio closed form is kept as a cross-check only).
    q = 1/2 is critical binary; q > 1/2 has a Zipf tail with exponent
    (1+q)/q and infinite variance.
    """

    name = "igw"

    def __init__(self, q: float):
        q = float(q)
        if not 0.5 <= q < 1.0:
            raise ValueError("q must lie in [1/2, 1)")
        self.q = q
        self.inv_q = 1.0 / q

    @property
    def params(self) -> tuple:
        return (self.q,)

    def spec_string(self) -> str:
        return f"igw:{self.q!r}"

    def pmf(self, k: int) -> float:
        q = self.q
        if k == 0:
            return q
        if k == 1:
            return 0.0
        val = (1.0 - q) / (2.0 * q)
        for i in range(2, k):
            val *= (i - self.inv_q) / (i + 1.0)
        return val

    def pmf_tail_iter(self, k0: int):
        # one ratio step per term: the products of pmf(k) in the same order,
        # at O(1) per term instead of O(k)
        k, val = k0, self.pmf(k0)
        while True:
            yield k, val
            val = val * ((k - self.inv_q) / (k + 1.0)) if k >= 2 else self.pmf(k + 1)
            k += 1

    def pmf_array(self, kmax: int) -> np.ndarray:
        q = self.q
        out = np.zeros(kmax + 1)
        out[0] = q
        if kmax >= 2:
            ratios = np.empty(kmax - 1)
            ratios[0] = (1.0 - q) / (2.0 * q)
            if kmax > 2:
                i = np.arange(2, kmax)
                ratios[1:] = (i - self.inv_q) / (i + 1.0)
            out[2:] = np.cumprod(ratios)
        return out

    def pmf_gamma(self, k: int) -> float:
        """Zipf-type Gamma-ratio form (q > 1/2, k >= 2); cross-check only."""
        if self.q == 0.5:
            raise ValueError("Gamma form degenerates at q = 1/2")
        q = self.q
        with mp.workdps(30):
            val = (1 - q) * mp.gamma(k - 1 / q) / (q * mp.gamma(2 - 1 / q) * mp.factorial(k))
        return float(val)

    def pmf_fraction(self, k: int) -> Fraction:
        """Exact pmf at the simplest rational within 1e-15 of q, else at q itself."""
        q = Fraction(self.q).limit_denominator(10 ** 12)
        if abs(float(q) - self.q) > 1e-15:
            q = Fraction(self.q)
        if k == 0:
            return q
        if k == 1:
            return Fraction(0)
        val = (1 - q) / (2 * q)
        for i in range(2, k):
            val *= Fraction(i, 1) - 1 / q
            val /= i + 1
        return val

    def mean(self) -> float:
        return 1.0

    @property
    def has_infinite_second_moment(self) -> bool:
        return self.q > 0.5

    def Q(self, z: float) -> float:
        return z + self.q * (1.0 - z) ** self.inv_q

    def log_Q_derivs(self, z: float, m_max: int) -> np.ndarray:
        # log q + sum_{j<m} log|a - j|, one term more for each m
        a, out = self.inv_q, np.full(m_max + 1, math.nan)
        acc, l1z = math.log(self.q), math.log1p(-z)
        for j in range(m_max):
            if a == j:  # q = 1/2: Q is quadratic
                out[j + 1:] = -math.inf
                break
            acc += math.log(abs(a - j))
            if j >= 1:
                out[j + 1] = acc + (a - (j + 1)) * l1z
        return out

    def q_minus_z(self, z: float) -> float:
        return self.q * (1.0 - z) ** self.inv_q

    def one_minus_qprime(self, z: float) -> float:
        return (1.0 - z) ** (self.inv_q - 1.0)

    def g_value(self, x: float) -> float:
        return self.q * (1.0 - x) ** (self.inv_q - 2.0)

    def assumption_ratio(self, x: float) -> float:
        return self.q

    def tail_prob(self, j: int) -> float:
        if j <= 0:
            return 1.0
        if j == 1:
            return 1.0 - self.q
        if self.q == 0.5:
            return 0.5 if j == 2 else 0.0
        a = self.inv_q
        with mp.workdps(30):
            # partial sums of binomial coefficients telescope:
            # P(X >= j) = q * Gamma(j - 1/q) / (Gamma(j) * |Gamma(1 - 1/q)|)
            val = self.q * mp.gamma(j - a) / (mp.gamma(j) * abs(mp.gamma(1 - a)))
        return float(val)

    def tail_mean(self, j: int) -> float:
        if j <= 1:
            return 1.0
        if self.q == 0.5:
            return 1.0 if j == 2 else 0.0
        a = self.inv_q
        with mp.workdps(30):
            val = mp.gamma(j - a) / (mp.gamma(j - 1) * mp.gamma(2 - a))
        return float(val)


# --------------------------------------------------------------------- #
# Finite table                                                            #
# --------------------------------------------------------------------- #


class FiniteTable(OffspringDistribution):
    """Arbitrary finite-support pmf with q1 = 0; everything is exact sums."""

    name = "table"

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or len(p) < 1:
            raise ValueError("probs must be a 1-d sequence")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if len(p) > 1 and p[1] != 0.0:
            raise ValueError("q1 must be zero (trees must be reduced)")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        self.probs = p
        self.probs.setflags(write=False)
        self._k = np.arange(len(p), dtype=np.float64)

    @property
    def params(self) -> tuple:
        return tuple(self.probs.tolist())

    def spec_string(self) -> str:
        return f"table:[{','.join(map(repr, self.params))}]"

    @property
    def kmax(self) -> int:
        return len(self.probs) - 1

    def pmf(self, k: int) -> float:
        return float(self.probs[k]) if 0 <= k <= self.kmax else 0.0

    def pmf_array(self, kmax: int) -> np.ndarray:
        out = np.zeros(kmax + 1)
        upto = min(kmax, self.kmax)
        out[: upto + 1] = self.probs[: upto + 1]
        return out

    def mean(self) -> float:
        return float(np.dot(self._k, self.probs))

    @property
    def has_infinite_second_moment(self) -> bool:
        return False

    def Q(self, z: float) -> float:
        return float(np.polyval(self.probs[::-1], z))

    def log_Q_derivs(self, z: float, m_max: int) -> np.ndarray:
        out = np.full(m_max + 1, -math.inf)
        out[:2] = math.nan
        for m in range(2, min(m_max, self.kmax) + 1):
            if z == 0.0:
                if self.pmf(m) > 0:
                    out[m] = math.log(self.pmf(m)) + math.lgamma(m + 1)
                continue
            k = np.arange(m, self.kmax + 1, dtype=np.float64)
            qk = self.probs[m:]
            good = qk > 0
            if not np.any(good):
                continue
            lt = (
                gammaln(k[good] + 1.0)
                - gammaln(k[good] - m + 1.0)
                + np.log(qk[good])
                + (k[good] - m) * math.log(z)
            )
            out[m] = float(logsumexp(lt))
        return out

    def q_minus_z(self, z: float) -> float:
        # Q(z) - z = (1-z)[(1 - mean) + (1-z) g(z)] for any law with q1 = 0
        # (the pure (1-z)^2 g form needs criticality); all pieces stable
        if z >= 1.0:
            return 0.0
        return (1.0 - z) * ((1.0 - self.mean()) + (1.0 - z) * self.g_series(z))

    def one_minus_qprime(self, z: float) -> float:
        # 1 - Q'(z) = sum_k k q_k (1 - z^{k-1}) + (1 - mean): positive terms
        k = self._k[1:]
        s = float(np.sum(k * self.probs[1:] * (1.0 - z ** (k - 1.0))))
        return s + (1.0 - self.mean())

    def tail_prob(self, j: int) -> float:
        if j <= 0:
            return 1.0
        return float(self.probs[min(j, self.kmax + 1):].sum())

    def tail_mean(self, j: int) -> float:
        j = max(j, 0)
        if j > self.kmax:
            return 0.0
        return float(np.dot(self._k[j:], self.probs[j:]))

    def g_series(self, x: float) -> float:
        # finite polynomial: no truncation
        coeffs = [self.g_series_coeff(m) for m in range(max(self.kmax - 1, 1))]
        return float(np.polyval(coeffs[::-1], x))


# --------------------------------------------------------------------- #
# Zipf-critical                                                           #
# --------------------------------------------------------------------- #


class ZipfCritical(OffspringDistribution):
    """q_k = c k^-(alpha+1) for k >= 2, with c fixed by criticality.

    c = 1/(zeta(alpha) - 1) makes the mean exactly 1, and
    q0 = 1 - c (zeta(alpha+1) - 1) must land in (0, 1) for the construction
    to be a probability law; alpha in (1, 2] always qualifies.  Q and its
    derivatives are polylogarithms, evaluated by mpmath so that arguments
    arbitrarily close to 1 stay accurate (needed by the L estimator).
    """

    name = "zipf"

    def __init__(self, alpha: float, dps: int = 30):
        alpha = float(alpha)
        if not 1.0 < alpha <= 2.0:
            raise ValueError("alpha must lie in (1, 2]")
        self.alpha = alpha
        self.dps = dps
        # constants kept as mpf: near z = 1 the float64 rounding of c, q0
        # alone would swamp Q(z) - z
        with mp.workdps(max(dps, 60)):
            self._c_mp = 1 / (mp.zeta(alpha) - 1)
            self._q0_mp = 1 - self._c_mp * (mp.zeta(alpha + 1) - 1)
        self.c = float(self._c_mp)
        self.q0 = float(self._q0_mp)
        if not 0.0 < self.q0 < 1.0:
            raise ValueError(f"construction infeasible: q0 = {self.q0!r}")

    @property
    def params(self) -> tuple:
        return (self.alpha,)

    def spec_string(self) -> str:
        return f"zipf:{self.alpha!r}"

    def pmf(self, k: int) -> float:
        if k == 0:
            return self.q0
        if k < 2:
            return 0.0
        return self.c * float(k) ** (-(self.alpha + 1.0))

    def pmf_array(self, kmax: int) -> np.ndarray:
        out = np.zeros(kmax + 1)
        out[0] = self.q0
        if kmax >= 2:
            k = np.arange(2, kmax + 1, dtype=np.float64)
            out[2:] = self.c * k ** (-(self.alpha + 1.0))
        return out

    def mean(self) -> float:
        return 1.0

    @property
    def has_infinite_second_moment(self) -> bool:
        return True  # alpha <= 2

    def Q(self, z: float) -> float:
        if z == 1.0:
            return 1.0
        with mp.workdps(self.dps):
            val = self._q0_mp + self._c_mp * (mp.polylog(self.alpha + 1, z) - z)
        return float(val)

    def log_Q_derivs(self, z: float, m_max: int) -> np.ndarray:
        out = np.full(m_max + 1, math.nan)
        if z <= 0.0:
            for m in range(2, m_max + 1):
                out[m] = math.log(self.pmf(m)) + math.lgamma(m + 1) if self.pmf(m) else -math.inf
            return out
        if z >= 1.0:
            raise ValueError("Q derivatives of the Zipf law diverge at z = 1")
        # positive-term direct sum in log space: summand peaks near
        # k* = (m - alpha - 1)/(-log z); cover the peak plus decay room
        delta = -math.log(z)
        kcaps = [int((m + 60.0) / delta) + 20 * m + 2000 for m in range(m_max + 1)]
        # one table for every m, G[i] = lgamma(i + 1); kcap grows with m
        G = gammaln(np.arange(kcaps[-1]) + 1.0)
        for m in range(2, m_max + 1):
            kcap = kcaps[m]
            k = np.arange(m, kcap, dtype=np.float64)
            lt = (G[m:kcap] - G[:kcap - m] - (self.alpha + 1.0) * np.log(k)
                  + (k - m) * math.log(z))
            peak = float(lt.max())
            out[m] = math.log(self.c) + peak + math.log(np.exp(lt - peak).sum())
        return out

    def q_minus_z(self, z: float) -> float:
        if z == 1.0:
            return 0.0
        # digits lost to cancellation grow like alpha*log10(1/(1-z))
        extra = int(self.alpha * max(0.0, -math.log10(max(1.0 - z, 1e-300)))) + 10
        with mp.workdps(self.dps + extra):
            zm = mp.mpf(z)
            val = self._q0_mp + self._c_mp * (mp.polylog(self.alpha + 1, zm) - zm) - zm
        return float(val)

    def one_minus_qprime(self, z: float) -> float:
        if z == 1.0:
            return 0.0
        if z == 0.0:
            return 1.0  # Q'(0) = q1 = 0
        extra = int(self.alpha * max(0.0, -math.log10(max(1.0 - z, 1e-300)))) + 10
        with mp.workdps(self.dps + extra):
            zm = mp.mpf(z)
            val = 1 - self._c_mp * (mp.polylog(self.alpha, zm) - zm) / zm
        return float(val)

    def tail_prob(self, j: int) -> float:
        if j <= 0:
            return 1.0
        if j == 1:
            return 1.0 - self.q0
        with mp.workdps(self.dps):
            val = self._c_mp * mp.zeta(self.alpha + 1, j)
        return float(val)

    def tail_mean(self, j: int) -> float:
        if j <= 1:
            return 1.0
        with mp.workdps(self.dps):
            val = self._c_mp * mp.zeta(self.alpha, j)
        return float(val)


# --------------------------------------------------------------------- #
# Geometric-critical                                                      #
# --------------------------------------------------------------------- #


class GeometricCritical(OffspringDistribution):
    """q_k = c r^k for k >= 2; criticality pins c = (1-r)^2 / (r^2 (2-r)).

    Light-tailed (all moments finite), so its pruning attractor is critical
    binary.  Everything has small closed forms; in particular
    g(x) = c r^2 / ((1-r)^2 (1 - r x)).
    """

    name = "geometric"

    def __init__(self, r: float = 0.5):
        r = float(r)
        if not 0.0 < r < 1.0:
            raise ValueError("r must lie in (0, 1)")
        self.r = r
        self.c = (1.0 - r) ** 2 / (r * r * (2.0 - r))
        self.q0 = 1.0 - (1.0 - r) / (2.0 - r)

    @property
    def params(self) -> tuple:
        return (self.r,)

    def spec_string(self) -> str:
        return f"geom:{self.r!r}"

    def pmf(self, k: int) -> float:
        if k == 0:
            return self.q0
        if k < 2:
            return 0.0
        return self.c * self.r ** k

    def pmf_array(self, kmax: int) -> np.ndarray:
        out = np.zeros(kmax + 1)
        out[0] = self.q0
        if kmax >= 2:
            out[2:] = self.c * self.r ** np.arange(2, kmax + 1, dtype=np.float64)
        return out

    def mean(self) -> float:
        return 1.0

    @property
    def has_infinite_second_moment(self) -> bool:
        return False

    def Q(self, z: float) -> float:
        rz = self.r * z
        return self.q0 + self.c * rz * rz / (1.0 - rz)

    def log_Q_derivs(self, z: float, m_max: int) -> np.ndarray:
        out = np.full(m_max + 1, math.nan)
        for m in range(2, m_max + 1):
            out[m] = (math.log(self.c) + math.lgamma(m + 1) + m * math.log(self.r)
                      - (m + 1) * math.log1p(-self.r * z))
        return out

    def g_value(self, x: float) -> float:
        return self.c * self.r * self.r / ((1.0 - self.r) ** 2 * (1.0 - self.r * x))

    def q_minus_z(self, z: float) -> float:
        return (1.0 - z) ** 2 * self.g_value(z) if z < 1.0 else 0.0

    def one_minus_qprime(self, z: float) -> float:
        r = self.r
        return (
            self.c * r * r * (1.0 - z) * (2.0 - r - r * z)
            / ((1.0 - r) ** 2 * (1.0 - r * z) ** 2)
        )

    def tail_prob(self, j: int) -> float:
        if j <= 0:
            return 1.0
        if j == 1:
            return 1.0 - self.q0
        return self.c * self.r ** j / (1.0 - self.r)

    def tail_mean(self, j: int) -> float:
        if j <= 1:
            return 1.0
        r = self.r
        return self.c * r ** j * (j * (1.0 - r) + r) / (1.0 - r) ** 2


# --------------------------------------------------------------------- #
# Spec strings                                                            #
# --------------------------------------------------------------------- #


def from_spec(spec: str) -> OffspringDistribution:
    """Parse CLI strings: igw:0.5, zipf:1.5, geom:0.5, binary, table:<path>.

    ``table:`` accepts a path to a JSON file {"q": [q0, q1, ...]} or an
    inline JSON array.
    """
    spec = spec.strip()
    if spec == "binary":
        return FiniteTable([0.5, 0.0, 0.5])
    kind, _, arg = spec.partition(":")
    if kind == "igw":
        return IGW(float(arg))
    if kind == "zipf":
        return ZipfCritical(float(arg))
    if kind == "geom":
        return GeometricCritical(float(arg)) if arg else GeometricCritical()
    if kind == "table":
        if arg.lstrip().startswith("["):
            return FiniteTable(json.loads(arg))
        with open(arg) as fh:
            return FiniteTable(json.load(fh)["q"])
    raise ValueError(f"unknown distribution spec {spec!r}")


# --------------------------------------------------------------------- #
# Module-level operations                                                 #
# --------------------------------------------------------------------- #


def g_value(d: OffspringDistribution, x: float, route: str = "direct") -> float:
    """g(x) = (Q(x)-x)/(1-x)^2 by two independent routes.

    "direct" uses the family's stable Q-side evaluation; "series" rebuilds
    it from pmf tail sums.  For critical laws the series is the plain
    tail-sum power series; for non-critical laws the (1-mean)/(1-x) term
    (absent under criticality) is added so the two routes agree everywhere.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    if route == "direct":
        return d.g_value(x)
    if route == "series":
        return d.g_series(x) + (1.0 - d.mean()) / (1.0 - x)
    raise ValueError(f"unknown route {route!r}")


@dataclass(frozen=True)
class RegularityProfile:
    """Estimated regularity exponents with their probe diagnostics.

    ``L_probes`` holds (x, value) pairs of 2 - 1/ratio(x) at x = 1 - 10^-j;
    ``converged`` is False when the probe differences fail to shrink, in
    which case ``L`` is still the extrapolated value but should not be
    trusted silently.
    """

    L: float
    L_probes: tuple
    converged: bool
    Lambda: float | None = None
    Lambda_probes: tuple = ()

    @property
    def attractor_q(self) -> float:
        # the limit family parameter lies in [1/2, 1); clamp estimator noise
        return min(max(1.0 / (2.0 - self.L), 0.5), 1.0 - 1e-12)


def estimate_L(d: OffspringDistribution, js=range(2, 9)) -> RegularityProfile:
    """Probe (1-x) g'(x) / g(x) = 2 - 1/ratio(x) at x = 1 - 10^-j.

    The identity used: (Q(x)-x)/((1-x)(1-Q'(x))) = 1/(2 - (1-x)g'/g), so
    the probe needs only the stable ratio, never a numeric derivative of g.
    A two-point 1/j Richardson step removes slowly-varying corrections
    (exact for the log-divergence at the alpha = 2 boundary); when the last
    two probes already agree to 1e-9 the final probe is used as-is.
    """
    if not d.is_critical:
        raise ValueError("L is defined for critical laws")
    probes = []
    for j in js:
        x = 1.0 - 10.0 ** (-j)
        probes.append((x, 2.0 - 1.0 / d.assumption_ratio(x)))
    vals = [v for _, v in probes]
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    js = list(js)
    if diffs[-1] <= 1e-9:
        L = vals[-1]
        converged = True
    else:
        # model probe_j = L + b/j on the last two points
        j1, j2 = js[-2], js[-1]
        L = (j2 * vals[-1] - j1 * vals[-2]) / (j2 - j1)
        converged = diffs[-1] <= diffs[-2] * 1.05 + 1e-12
    return RegularityProfile(L=float(L), L_probes=tuple(probes), converged=bool(converged))


def estimate_Lambda(d: OffspringDistribution, js=range(2, 41, 2)):
    """Probe k P(X >= k) / E[X; X >= k] at k = 2^j; None when inapplicable.

    Lambda only exists (and is only used) for critical laws with infinite
    second moment; tails come from the families' exact tail formulas, so the
    probe points can go far beyond any summation cap.
    """
    if not d.has_infinite_second_moment:
        return None
    probes = []
    for j in js:
        k = 2 ** j
        tm = d.tail_mean(k)
        if tm <= 0.0:
            break
        probes.append((k, k * d.tail_prob(k) / tm))
    return probes[-1][1], tuple(probes)


def regularity_profile(d: OffspringDistribution) -> RegularityProfile:
    """estimate_L plus, when applicable, the Lambda estimate."""
    prof = estimate_L(d)
    lam = estimate_Lambda(d)
    if lam is None:
        return prof
    value, probes = lam
    return RegularityProfile(
        L=prof.L,
        L_probes=prof.L_probes,
        converged=prof.converged,
        Lambda=value,
        Lambda_probes=probes,
    )
