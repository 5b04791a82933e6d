"""Closed-form laws of the invariant trees and the pruning pushforward.

Everything the sampler is tested against lives here: the height CDF (a
closed form), the length density/CDF and the edge-count pmf/CDF (alternating
series built from the common Gamma-ratio block

    B_n = Gamma(n/q + 1) / Gamma(n/q - n + 2) = prod_{j=0}^{n-2} (n/q - j),

which also yields the inverse-series coefficients used by the Lagrange
route), their polynomial-tail asymptotics, the offspring law of a pruned
tree (binomial thinning through Q and its derivatives), the leaf-coloring
survival fixed point, and the generating-function limit that identifies the
pruning attractor.

The alternating series cancel catastrophically as their argument grows (the
terms peak near exp(c * lam*q*x) while the sums stay O(1)), so every series
evaluation goes through a :class:`SeriesEvalPolicy`: a cheap a-priori
log-term scan bounds the largest term, small cases take a vectorized
float64 path, and everything else is summed by mpmath at
log2(max term) + 64 bits, with a cancellation guard that refuses to return
digits that were never there.  For rational q the edge-count law is also
computed in exact big-rational arithmetic (B_k is a finite rational
product), which is what the acceptance identities use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import gammaln, logsumexp

from .offspring import IGW, OffspringDistribution, estimate_L

__all__ = [
    "SeriesEvalPolicy",
    "CancellationError",
    "height_cdf",
    "height_survival_pt",
    "height_ode_max_residual",
    "length_pdf",
    "length_cdf",
    "length_cdf_grid",
    "length_tail",
    "length_pdf_bessel_binary",
    "length_cdf_bessel_binary",
    "bessel_i0",
    "bessel_i1",
    "size_pmf",
    "size_cdf",
    "size_pmf_oracle",
    "size_tail",
    "lagrange_w_coeffs",
    "lagrange_roundtrip_residual",
    "PushforwardLaw",
    "pushforward_offspring",
    "pushforward_Q",
    "pushforward_Q_prime",
    "coloring_survival",
    "coloring_Q",
    "coloring_offspring",
    "attractor_limit",
    "attractor_target",
]

_LN2 = math.log(2.0)


class CancellationError(ArithmeticError):
    """A series lost more bits to cancellation than the policy allows."""


@dataclass(frozen=True)
class SeriesEvalPolicy:
    """How to sum the alternating series.

    prec_bits = 0 lets the evaluator pick log2(max term) + 64 bits from the
    a-priori term scan; an explicit value must be >= 53 and is used as-is
    (the cancellation guard then aborts rather than return noise).
    ``guard_drop_bits``: the sum must retain at least this many bits, i.e.
    max|term|/|sum| <= 2**(prec - guard_drop_bits).
    ``float64_max_term``: largest allowed term magnitude on the fast path.
    """

    prec_bits: int = 0
    max_terms: int = 200_000
    guard_drop_bits: int = 20
    float64_max_term: float = 2.0 ** 30

    def __post_init__(self):
        if self.prec_bits and self.prec_bits < 53:
            raise ValueError("explicit precision must be at least 53 bits")


_DEFAULT_POLICY = SeriesEvalPolicy()


# --------------------------------------------------------------------- #
# Height                                                                  #
# --------------------------------------------------------------------- #


def _check_q_lam(q: float, lam: float):
    if not 0.5 <= q < 1.0:
        raise ValueError("q must lie in [1/2, 1)")
    if lam <= 0.0:
        raise ValueError("lam must be positive")


def height_cdf(q: float, lam: float, x) -> float | np.ndarray:
    """P(height <= x) for the invariant tree with parameters (q, lam)."""
    _check_q_lam(q, lam)
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    out = 1.0 - (lam * (1.0 - q) * x + 1.0) ** (-q / (1.0 - q))
    return float(out) if out.ndim == 0 else out


def height_survival_pt(q: float, lam: float, t) -> float | np.ndarray:
    """p_t for height-threshold pruning: the tree survives iff height > t."""
    _check_q_lam(q, lam)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    out = (lam * (1.0 - q) * t + 1.0) ** (-q / (1.0 - q))
    return float(out) if out.ndim == 0 else out


def height_ode_max_residual(q: float, lam: float, xs, h: float = 1e-4) -> float:
    """max |H'(x) - lam q (1 - H(x))^(1/q)| by central differences on xs."""
    xs = np.asarray(xs, dtype=np.float64)
    if np.any(xs - h < 0):
        raise ValueError("grid must keep x - h >= 0")
    hprime = (height_cdf(q, lam, xs + h) - height_cdf(q, lam, xs - h)) / (2 * h)
    rhs = lam * q * (1.0 - height_cdf(q, lam, xs)) ** (1.0 / q)
    return float(np.max(np.abs(hprime - rhs)))


# --------------------------------------------------------------------- #
# The Gamma-ratio block and series machinery                              #
# --------------------------------------------------------------------- #


def _log_B(n, q: float):
    """log B_n = lgamma(n/q + 1) - lgamma(n/q - n + 2); n/q - n + 2 > 0."""
    n = np.asarray(n, dtype=np.float64)
    return _lgamma(n / q + 1.0) - _lgamma(n / q - n + 2.0)


def _lgamma(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        return math.lgamma(float(x))
    return gammaln(x)


def B_fraction(n: int, q: Fraction) -> Fraction:
    """Exact B_n for rational q."""
    nq = Fraction(n) / q
    out = Fraction(1)
    for j in range(n - 1):
        out *= nq - j
    return out


def _series_log_terms(q: float, log_factor: float, kind: str, max_terms: int):
    """Scan log|term_n|; return (n_stop, argmax, logmax).

    kind "pdf": term_n = B_n (lam q)^n x^(n-1) / (n! (n-1)!); log_factor
    must then be log(lam q x) and the constant -log x is handled by caller.
    kind "cdf": term_n = B_n (lam q x)^n / (n!)^2.
    Terms decay superexponentially after their peak; the scan stops once
    120 nats below the peak.
    """
    logmax = -math.inf
    argmax = 1
    n = 0
    block = 64
    while n < max_terms:
        ns = np.arange(n + 1, min(n + 1 + block, max_terms + 1), dtype=np.float64)
        lt = _log_B(ns, q) + ns * log_factor - 2.0 * _lgamma(ns + 1.0)
        if kind == "pdf":
            lt += np.log(ns)  # n!(n-1)! = (n!)^2 / n
        m = float(lt.max())
        if m > logmax:
            logmax = m
            argmax = int(ns[int(lt.argmax())])
        n = int(ns[-1])
        if lt[-1] < logmax - 120.0:
            return n, argmax, logmax
        block = min(2 * block, 8192)
    raise CancellationError("series term scan exceeded max_terms")


def _sum_series_float(q: float, lamq: float, x: float, kind: str, n_stop: int) -> float:
    n = np.arange(1, n_stop + 1, dtype=np.float64)
    lt = _log_B(n, q) + n * math.log(lamq * x) - 2.0 * _lgamma(n + 1.0)
    if kind == "pdf":
        lt += np.log(n) - math.log(x)
    terms = np.exp(lt)
    terms[1::2] *= -1.0
    # ascending-order pairwise reduction is fine at this magnitude
    return float(terms.sum())


def _sum_series_mp(q: float, lamq: float, x: float, kind: str, n_stop: int,
                   bits: int, policy: SeriesEvalPolicy) -> float:
    with mp.workprec(bits):
        lx = mp.log(mp.mpf(lamq) * mp.mpf(x))
        total = mp.mpf(0)
        maxterm = mp.mpf(0)
        qm = mp.mpf(q)
        for n in range(1, n_stop + 1):
            lt = (
                mp.loggamma(n / qm + 1)
                - mp.loggamma(n / qm - n + 2)
                + n * lx
                - 2 * mp.loggamma(n + 1)
            )
            if kind == "pdf":
                lt += mp.log(n) - mp.log(x)
            term = mp.e ** lt
            if term > maxterm:
                maxterm = term
            total += term if (n % 2 == 1) else -term
        if maxterm > abs(total) * mp.mpf(2) ** (bits - policy.guard_drop_bits):
            raise CancellationError(
                f"lost all but {policy.guard_drop_bits} guard bits at {bits} bits; "
                "raise SeriesEvalPolicy.prec_bits"
            )
        return float(total)


def _eval_series(q: float, lam: float, x: float, kind: str, policy: SeriesEvalPolicy) -> float:
    _check_q_lam(q, lam)
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return lam * q if kind == "pdf" else 0.0
    lamq = lam * q
    n_stop, _, logmax = _series_log_terms(q, math.log(lamq * x), "cdf", policy.max_terms)
    # the pdf terms differ by n/x: same scan is an adequate bound for sizing
    if kind == "pdf":
        logmax += math.log(max(n_stop, 1)) - math.log(x)
    if policy.prec_bits == 0 and logmax <= math.log(policy.float64_max_term):
        return _sum_series_float(q, lamq, x, kind, n_stop)
    bits = policy.prec_bits or int(max(logmax, 0.0) / _LN2) + 64
    return _sum_series_mp(q, lamq, x, kind, n_stop, bits, policy)


# --------------------------------------------------------------------- #
# Length distribution                                                     #
# --------------------------------------------------------------------- #


def length_pdf(q: float, lam: float, x: float, policy: SeriesEvalPolicy = _DEFAULT_POLICY) -> float:
    """Density of total tree length at x; ell(0) = lam*q."""
    return _eval_series(q, lam, float(x), "pdf", policy)


def length_cdf(q: float, lam: float, x: float, policy: SeriesEvalPolicy = _DEFAULT_POLICY) -> float:
    """P(length <= x)."""
    return _eval_series(q, lam, float(x), "cdf", policy)


def length_cdf_grid(q: float, lam: float, xs, policy: SeriesEvalPolicy = _DEFAULT_POLICY) -> np.ndarray:
    """Vectorized CDF on a grid; float64 fast path only.

    Raises :class:`CancellationError` when the largest x needs extended
    precision; callers restrict their comparison range accordingly.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.zeros(0)
    if np.any(xs < 0):
        raise ValueError("x must be >= 0")
    xmax = float(xs.max())
    if xmax == 0.0:
        return np.zeros_like(xs)
    lamq = lam * q
    n_stop, _, logmax = _series_log_terms(q, math.log(lamq * xmax), "cdf", policy.max_terms)
    if logmax > math.log(policy.float64_max_term):
        raise CancellationError(
            f"x up to {xmax:g} needs extended precision; restrict the grid "
            f"or evaluate pointwise with length_cdf"
        )
    n = np.arange(1, n_stop + 1, dtype=np.float64)
    logc = _log_B(n, q) + n * math.log(lamq) - 2.0 * _lgamma(n + 1.0)
    coeff = np.exp(logc)
    coeff[1::2] *= -1.0
    out = np.zeros_like(xs)
    pos = xs > 0
    xp = xs[pos]
    acc = np.zeros_like(xp)
    for c in coeff[::-1]:
        acc = acc * xp + c
    out[pos] = acc * xp
    return out


def length_tail(q: float, lam: float, x: float) -> float:
    """Asymptotic tail 1 - L(x) ~ x^-q / ((lam q)^q Gamma(1-q)); not exact."""
    _check_q_lam(q, lam)
    if x <= 0:
        raise ValueError("x must be > 0")
    return x ** (-q) / ((lam * q) ** q * math.gamma(1.0 - q))


# Bessel-based closed forms for the binary case q = 1/2 (cross-check oracle)

def bessel_i0(x: float, policy: SeriesEvalPolicy = _DEFAULT_POLICY) -> float:
    return _bessel_series(x, 0, policy)


def bessel_i1(x: float, policy: SeriesEvalPolicy = _DEFAULT_POLICY) -> float:
    return _bessel_series(x, 1, policy)


def _bessel_series(x: float, nu: int, policy: SeriesEvalPolicy) -> float:
    """I_nu by its power series; all terms positive, precision sized to e^x."""
    if x < 0:
        raise ValueError("x must be >= 0")
    bits = policy.prec_bits or int(1.45 * x) + 80
    with mp.workprec(bits):
        h = mp.mpf(x) / 2
        term = h ** nu / mp.factorial(nu)
        total = term
        k = 1
        while True:
            term *= h * h / (k * (k + nu))
            total += term
            if term < total * mp.mpf(2) ** (-bits + 8):
                break
            k += 1
            if k > policy.max_terms:
                raise CancellationError("Bessel series exceeded max_terms")
        return float(total)


def _bessel_emx(x: float, nu: int, policy: SeriesEvalPolicy) -> float:
    bits = policy.prec_bits or int(1.45 * x) + 80
    pol = SeriesEvalPolicy(prec_bits=max(bits, 53), max_terms=policy.max_terms)
    with mp.workprec(bits):
        return float(mp.e ** (-mp.mpf(x)) * _bessel_series(x, nu, pol))


def length_pdf_bessel_binary(lam: float, x: float, policy: SeriesEvalPolicy = _DEFAULT_POLICY) -> float:
    """q = 1/2 closed form: ell(x) = e^(-lam x) I_1(lam x) / x."""
    if x <= 0:
        raise ValueError("x must be > 0 (ell(0) = lam/2 by the series)")
    return _bessel_emx(lam * x, 1, policy) / x


def length_cdf_bessel_binary(lam: float, x: float, policy: SeriesEvalPolicy = _DEFAULT_POLICY) -> float:
    """q = 1/2 closed form: L(x) = 1 - e^(-lam x)(I_0 + I_1)(lam x)."""
    if x < 0:
        raise ValueError("x must be >= 0")
    z = lam * x
    bits = policy.prec_bits or int(1.45 * z) + 80
    pol = SeriesEvalPolicy(prec_bits=max(bits, 53), max_terms=policy.max_terms)
    with mp.workprec(bits):
        s = _bessel_series(z, 0, pol) + _bessel_series(z, 1, pol)
        return float(1 - mp.e ** (-mp.mpf(z)) * s)


# --------------------------------------------------------------------- #
# Size (edge count) distribution                                          #
# --------------------------------------------------------------------- #


def size_pmf(q, n: int, policy: SeriesEvalPolicy = _DEFAULT_POLICY):
    """P(#edges = n).  Fraction q -> exact Fraction; float q -> float."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(q, Fraction):
        total = Fraction(0)
        for k in range(1, n + 1):
            term = (
                Fraction(math.comb(n - 1, k - 1))
                * B_fraction(k, q)
                * q ** k
                / Fraction(math.factorial(k))
            )
            total += term if k % 2 == 1 else -term
        return total
    return _size_float(float(q), n, n, "pmf", policy)


def size_cdf(q, x: float, policy: SeriesEvalPolicy = _DEFAULT_POLICY):
    """P(#edges <= x) for x >= 1, via the binomial-telescoped form."""
    N = int(math.floor(x))
    if N < 1:
        return Fraction(0) if isinstance(q, Fraction) else 0.0
    if isinstance(q, Fraction):
        total = Fraction(0)
        for k in range(1, N + 1):
            term = (
                Fraction(math.comb(N, k))
                * B_fraction(k, q)
                * q ** k
                / Fraction(math.factorial(k))
            )
            total += term if k % 2 == 1 else -term
        return total
    return _size_float(float(q), N, N, "cdf", policy)


def _size_float(q: float, n: int, kmax: int, kind: str, policy: SeriesEvalPolicy) -> float:
    ks = np.arange(1, kmax + 1, dtype=np.float64)
    if kind == "pmf":
        logbin = _lgamma(float(n)) - _lgamma(ks) - _lgamma(n - ks + 1.0)
    else:
        logbin = _lgamma(n + 1.0) - _lgamma(ks + 1.0) - _lgamma(n - ks + 1.0)
    lt = logbin + _log_B(ks, q) + ks * math.log(q) - _lgamma(ks + 1.0)
    logmax = float(lt.max())
    if policy.prec_bits == 0 and logmax <= math.log(policy.float64_max_term):
        terms = np.exp(lt)
        terms[1::2] *= -1.0
        return float(terms.sum())
    bits = policy.prec_bits or int(max(logmax, 0.0) / _LN2) + 64
    with mp.workprec(bits):
        qm = mp.mpf(q)
        total = mp.mpf(0)
        maxterm = mp.mpf(0)
        for k in range(1, kmax + 1):
            if kind == "pmf":
                lb = mp.loggamma(n) - mp.loggamma(k) - mp.loggamma(n - k + 1)
            else:
                lb = mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)
            lt1 = (
                lb
                + mp.loggamma(k / qm + 1)
                - mp.loggamma(k / qm - k + 2)
                + k * mp.log(qm)
                - mp.loggamma(k + 1)
            )
            term = mp.e ** lt1
            maxterm = max(maxterm, term)
            total += term if k % 2 == 1 else -term
        if maxterm > abs(total) * mp.mpf(2) ** (bits - policy.guard_drop_bits):
            raise CancellationError("size series cancellation guard violated")
        return float(total)


def size_pmf_oracle(d: OffspringDistribution, n_max: int, exact: bool = True):
    """Edge-count pmf by the subtree-convolution recursion, any offspring law.

    alpha(n+1) = sum_k q_k (alpha conv^k)(n): a tree is a stem plus the k
    subtrees hanging off it.  Independent of the closed form; exact
    Fractions by default (float pmf values are themselves exact rationals).

    Returns alpha[0..n_max] with alpha[0] = 0.
    """
    if exact and n_max > 64:
        raise ValueError("exact mode is limited to n_max <= 64")
    if exact:
        if isinstance(d, IGW):
            qf = Fraction(d.q).limit_denominator(10 ** 12)
            if abs(float(qf) - d.q) > 1e-15:
                qf = Fraction(d.q)
            qs = [d.pmf_fraction(k, qf) for k in range(n_max + 1)]
        else:
            qs = [Fraction(d.pmf(k)) for k in range(n_max + 1)]
        zero, one = Fraction(0), Fraction(1)
    else:
        qs = [d.pmf(k) for k in range(n_max + 1)]
        zero, one = 0.0, 1.0

    alpha = [zero] * (n_max + 1)
    alpha[1] = qs[0] * one
    # powers[k][m] = alpha^{*k}(m), zero for m < k; column m is filled once
    # alpha is known below m, so each n adds one column in O(n^2)
    powers = [None, alpha] + [[zero] * (n_max + 1) for _ in range(2, n_max)]
    for n in range(1, n_max):
        # alpha(n+1) needs k-fold convolutions of alpha at argument n
        total = zero
        for k in range(2, n + 1):
            prev = powers[k - 1]
            acc = zero
            for a in range(k - 1, n):       # alpha^{*(k-1)} support starts at k-1
                if prev[a] != zero and alpha[n - a] != zero:
                    acc += prev[a] * alpha[n - a]
            powers[k][n] = acc
            if qs[k] != zero:
                total += qs[k] * acc
        alpha[n + 1] = total
    return alpha


def size_tail(q: float, x: float) -> float:
    """Asymptotic tail 1 - A(x) ~ x^-q / (q^q Gamma(1-q)); not exact."""
    if not 0.5 <= q < 1.0:
        raise ValueError("q must lie in [1/2, 1)")
    if x < 1:
        raise ValueError("x must be >= 1")
    return x ** (-q) / (q ** q * math.gamma(1.0 - q))


# --------------------------------------------------------------------- #
# Inverse series (Lagrange route)                                         #
# --------------------------------------------------------------------- #


def lagrange_w_coeffs(q, N: int):
    """First N coefficients of the series W(z) inverting z = W/(1-W)^(1/q).

    w_n = (-1)^(n-1) B_n / n!; for q = 1/2 these are signed Catalan numbers.
    Fraction q gives exact Fractions, float q gives float64.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if isinstance(q, Fraction):
        out = []
        for n in range(1, N + 1):
            w = B_fraction(n, q) / Fraction(math.factorial(n))
            out.append(w if n % 2 == 1 else -w)
        return out
    ns = np.arange(1, N + 1, dtype=np.float64)
    w = np.exp(_log_B(ns, float(q)) - _lgamma(ns + 1.0))
    w[1::2] *= -1.0
    return w


def lagrange_roundtrip_residual(q: float, z: float, N: int = 40) -> float:
    """|f(W(z)) - z| with f(w) = w/(1-w)^(1/q): the inversion check."""
    w = lagrange_w_coeffs(q, N)
    W = 0.0
    for c in w[::-1]:
        W = W * z + c
    W *= z
    return abs(W / (1.0 - W) ** (1.0 / q) - z)


# --------------------------------------------------------------------- #
# Pruning pushforward (binomial thinning through Q)                       #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PushforwardLaw:
    """Offspring law of the pruned tree conditioned on survival.

    ``pmf[m]`` for m = 0..M (with pmf[1] = 0), ``tail_mass`` the analytic
    completion of sum_{m>M} g_m from the generating-function identity, and
    ``normalization_defect`` = |pmf.sum() + tail_mass - 1|, a pure numeric
    consistency residual (the identity is exact in exact arithmetic).
    ``rate_multiplier`` = 1 - Q'(1-p): edge lengths of the pruned tree are
    exponential with rate lam * rate_multiplier.
    """

    p: float
    pmf: np.ndarray
    tail_mass: float
    rate_multiplier: float
    normalization_defect: float

    @property
    def g0(self) -> float:
        return float(self.pmf[0])


def _log_q_deriv(d: OffspringDistribution, z: float, m: int) -> float:
    """log Q^(m)(z), overflow-safe per family."""
    if isinstance(d, IGW):
        a = 1.0 / d.q
        acc = math.log(d.q)
        for j in range(m):
            acc += math.log(abs(a - j))
        return acc + (a - m) * math.log1p(-z)
    from .offspring import FiniteTable, GeometricCritical, ZipfCritical

    if isinstance(d, GeometricCritical):
        return (
            math.log(d.c)
            + math.lgamma(m + 1)
            + m * math.log(d.r)
            - (m + 1) * math.log1p(-d.r * z)
        )
    if isinstance(d, ZipfCritical):
        # positive-term direct sum in log space: summand peaks near
        # k* = (m - alpha - 1)/(-log z); cover the peak plus decay room
        if z <= 0.0:
            return math.log(d.pmf(m)) + math.lgamma(m + 1) if d.pmf(m) else -math.inf
        if z >= 1.0:
            raise ValueError("Q derivatives of the Zipf law diverge at z = 1")
        delta = -math.log(z)
        kcap = int((m + 60.0) / delta) + 20 * m + 2000
        k = np.arange(max(m, 2), kcap, dtype=np.float64)
        lt = (
            gammaln(k + 1.0)
            - gammaln(k - m + 1.0)
            - (d.alpha + 1.0) * np.log(k)
            + (k - m) * math.log(z)
        )
        peak = float(lt.max())
        return math.log(d.c) + peak + math.log(np.exp(lt - peak).sum())
    if isinstance(d, FiniteTable):
        if m > d.kmax:
            return -math.inf
        if z == 0.0:
            return math.log(d.pmf(m)) + math.lgamma(m + 1) if d.pmf(m) > 0 else -math.inf
        k = np.arange(m, d.kmax + 1, dtype=np.float64)
        qk = d.probs[m:]
        good = qk > 0
        if not np.any(good):
            return -math.inf
        lt = (
            gammaln(k[good] + 1.0)
            - gammaln(k[good] - m + 1.0)
            + np.log(qk[good])
            + (k[good] - m) * math.log(z)
        )
        return float(logsumexp(lt))
    val = d.Q_deriv(z, m)
    return math.log(val) if val > 0 else -math.inf


def pushforward_offspring(
    d: OffspringDistribution, p: float, mmax: int = 64, tol: float = 1e-10
) -> PushforwardLaw:
    """Offspring law {g_m} of a pruned tree, survival probability p.

    g_0 = (Q(1-p) - (1-p)) / (p (1 - Q'(1-p)));
    g_m = p^(m-1) Q^(m)(1-p) / (m! (1 - Q'(1-p))) for m >= 2.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if d.classify() == "supercritical":
        raise ValueError("pushforward defined for critical/subcritical laws")
    if p == 1.0:
        pmf = d.pmf_array(mmax)
        return PushforwardLaw(1.0, pmf, float(max(0.0, 1 - pmf.sum())), 1.0, 0.0)
    z = 1.0 - p
    omq = d.one_minus_qprime(z)
    log_denom = math.log(omq)
    g = np.zeros(mmax + 1)
    g[0] = d.assumption_ratio(z)  # == q_minus_z(z)/(p * omq)
    lp = math.log(p)
    taylor = 0.0  # sum_{2<=m<=M} p^m Q^(m)(1-p)/m!
    for m in range(2, mmax + 1):
        lq = _log_q_deriv(d, z, m)
        if lq == -math.inf:
            continue
        g[m] = math.exp(lq + (m - 1) * lp - math.lgamma(m + 1) - log_denom)
        taylor += math.exp(lq + m * lp - math.lgamma(m + 1))
    # analytic completion: sum_{m>M} p^m Q^(m)(1-p)/m! = 1 - Q(1-p) - p Q'(1-p) - taylor,
    # with 1 - Q(1-p) = p - q_minus_z(1-p) and Q'(1-p) = 1 - omq
    rest = (p - d.q_minus_z(z)) - p * (1.0 - omq) - taylor
    tail = max(rest, 0.0) / (p * omq)
    defect = abs(g.sum() + tail - 1.0)
    if defect > max(tol, 1e-8):
        raise ArithmeticError(f"pushforward normalization defect {defect:g}")
    return PushforwardLaw(p, g, tail, omq, defect)


def pushforward_Q(d: OffspringDistribution, p: float, z: float) -> float:
    """Generating function of the pruned offspring law at z."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if p == 1.0:
        return d.Q(z)
    y = (1.0 - p) + p * z
    return z + d.q_minus_z(y) / (p * d.one_minus_qprime(1.0 - p))


def pushforward_Q_prime(d: OffspringDistribution, p: float, z: float) -> float:
    """G'(z) = 1 - (1 - Q'((1-p) + p z)) / (1 - Q'(1-p)).

    At z = 1 this is exactly 1 for critical laws (criticality is preserved)
    and 1 - (1 - mean)/ (1 - Q'(1-p)) < 1 for subcritical ones.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if p == 1.0:
        return d.Q_prime(z)
    y = (1.0 - p) + p * z
    return 1.0 - d.one_minus_qprime(y) / d.one_minus_qprime(1.0 - p)


# --------------------------------------------------------------------- #
# Bernoulli leaf coloring                                                 #
# --------------------------------------------------------------------- #


def coloring_survival(d: OffspringDistribution, p: float, tol: float = 1e-12,
                      max_iter: int = 100_000) -> float:
    """g_p = P(colored tree nonempty), each leaf kept with probability 1-p.

    The no-kept-leaf probability f = E[p^(#leaves)] satisfies the fixed
    point f = Q(f) - q0 (1 - p): conditioning on the first vertex, a leaf
    contributes p and a k-vertex contributes f^k.  Iterated monotonically
    from f = p; convergence is geometric with rate Q'(f*) < 1 for critical
    and subcritical laws.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0, 1)")
    if d.classify() == "supercritical":
        raise ValueError("survival fixed point needs a (sub)critical law")
    if p == 0.0:
        return 1.0
    q0 = d.pmf(0)
    f = p
    for _ in range(max_iter):
        fn = d.Q(f) - q0 * (1.0 - p)
        if abs(fn - f) <= tol:
            return 1.0 - fn
        f = fn
    raise ArithmeticError("coloring fixed point did not converge")


def coloring_Q(d: OffspringDistribution, p: float, g_p: float, z: float,
               variant: str = "thinned") -> float:
    """Generating function of the colored tree's offspring law at z.

    variant "as-printed" keeps the published inner argument (1-p) + g_p z;
    variant "thinned" uses (1-g_p) + g_p z, the form matching the pruning
    pushforward with survival probability g_p.  Both are exposed so the
    Monte Carlo experiment can adjudicate them.
    """
    denom = g_p * d.one_minus_qprime(1.0 - g_p)
    if variant == "thinned":
        y = (1.0 - g_p) + g_p * z
        return z + d.q_minus_z(y) / denom
    if variant == "as-printed":
        y = (1.0 - p) + g_p * z
        return z + (d.Q(y) - (1.0 - g_p) - g_p * z) / denom
    raise ValueError(f"unknown variant {variant!r}")


def coloring_offspring(d: OffspringDistribution, p: float, variant: str = "thinned",
                       mmax: int = 64):
    """Offspring pmf implied by each coloring variant (for adjudication).

    The thinned variant is exactly the pruning pushforward at survival g_p.
    The as-printed variant is differentiated at z = 0; it need not even
    normalize, which the report surfaces.
    """
    g_p = coloring_survival(d, p)
    if variant == "thinned":
        law = pushforward_offspring(d, g_p, mmax=mmax)
        return g_p, law.pmf, law.tail_mass
    if variant != "as-printed":
        raise ValueError(f"unknown variant {variant!r}")
    omq = d.one_minus_qprime(1.0 - g_p)
    pmf = np.zeros(mmax + 1)
    pmf[0] = (d.Q(1.0 - p) - (1.0 - g_p)) / (g_p * omq)
    for m in range(2, mmax + 1):
        lq = _log_q_deriv(d, 1.0 - p, m)
        if lq == -math.inf:
            continue
        pmf[m] = math.exp(lq + (m - 1) * math.log(g_p) - math.lgamma(m + 1) - math.log(omq))
    return g_p, pmf, float("nan")


# --------------------------------------------------------------------- #
# Attractor limit                                                         #
# --------------------------------------------------------------------- #


def attractor_limit(d: OffspringDistribution, z: float, x: float) -> float:
    """Pre-limit ratio (Q(z + (1-z)x) - (z + (1-z)x)) / ((1-x)(1 - Q'(x)))."""
    if not 0.0 <= z < 1.0:
        raise ValueError("z must lie in [0, 1)")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    y = 1.0 - (1.0 - z) * (1.0 - x)
    return d.q_minus_z(y) / ((1.0 - x) * d.one_minus_qprime(x))


def attractor_target(d: OffspringDistribution, z: float) -> float:
    """x -> 1 limit of :func:`attractor_limit`.

    Critical law: (1-z)^(2-L) / (2-L) with L the regularity exponent;
    subcritical law: 1 - z (the point-mass degeneration).
    """
    cls = d.classify()
    if cls == "subcritical":
        return 1.0 - z
    if cls != "critical":
        raise ValueError("attractor defined for critical/subcritical laws")
    L = estimate_L(d).L
    return (1.0 - z) ** (2.0 - L) / (2.0 - L)
