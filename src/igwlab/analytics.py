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
terms peak near exp(c * lam*q*x) while the sums stay O(1)), so one evaluator
sums them all: a cheap a-priori log-term scan bounds the largest term, small
cases take a vectorized float64 path, and everything else is summed by
mpmath, at an explicit ``prec_bits`` or else at a precision sized from the
scan so that the returned float is the correctly rounded value, with a
cancellation guard that refuses to return digits that were never there.  For
rational q the edge-count law is also computed in exact big-rational
arithmetic (B_k is a finite rational product), which is what the acceptance
identities use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import gammaln

from .offspring import OffspringDistribution, estimate_L

__all__ = [
    "CancellationError",
    "height_cdf",
    "height_survival_pt",
    "height_ode_max_residual",
    "length_pdf",
    "length_cdf",
    "length_cdf_grid",
    "length_cdf_grid_limit",
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
# the length scan and the Bessel series give up after this many terms
_MAX_TERMS = 200_000
# an extended-precision sum must keep this many bits:
# max|term| / |sum| <= 2**(prec - _GUARD_BITS)
_GUARD_BITS = 20
# an auto-precision sum keeps 53 + 10 bits of its value, and first assumes
# that value is at least 2**-_SUM_FLOOR_BITS
_ROUND_BITS = 63
_SUM_FLOOR_BITS = 16
# the float64 path takes a series whose largest term is at most 2**30
_FLOAT64_MAX_LOG_TERM = math.log(2.0 ** 30)


class CancellationError(ArithmeticError):
    """A series lost more bits to cancellation than the guard allows."""


# --------------------------------------------------------------------- #
# Height                                                                  #
# --------------------------------------------------------------------- #


def _check_q(q):
    if not 0.5 <= q < 1.0:
        raise ValueError("q must lie in [1/2, 1)")


def _check_q_lam(q: float, lam: float):
    _check_q(q)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and > 0, not {lam!r}")


def _check_finite(x):
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, not {x!r}")


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
# The Gamma-ratio block and the alternating-series evaluator              #
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


def _log(x):
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def _B_numer(n: int, a: int, b: int) -> int:
    """a^(n-1) B_n = prod_{j=0}^{n-2} (n b - j a): exact B_n for q = a/b."""
    return math.prod(range(n * b, n * b - (n - 1) * a, -a))


# A series' log-term formula is written once, against one of these two
# arithmetics: float64 over an array of n (math.* on scalars), or mpmath at
# the working precision, one n at a time.


class _Float64:
    num = float
    log = staticmethod(_log)
    lgamma = staticmethod(_lgamma)

    @staticmethod
    def plus_log_B(x, n, q):
        return x + _log_B(n, q)


class _Mpmath:
    """One sum's arithmetic: log Gamma at an integer m is log (m-1)!, read
    from a table of log k! that grows by cumulative mp.log(k) sums."""
    num = mp.mpf
    log = staticmethod(mp.log)

    def __init__(self):
        self.log_fact = [mp.mpf(0)]

    def lgamma(self, m):
        if not mp.isint(m):
            return mp.loggamma(m)
        m, t = int(m), self.log_fact
        while len(t) < m:
            t.append(t[-1] + mp.log(len(t)))
        return t[m - 1]

    def plus_log_B(self, x, n, q):
        # the loggammas join x one at a time here and as one rounded block in
        # float64: the roundings each path has always made
        return x + self.lgamma(n / q + 1) - self.lgamma(n / q - n + 2)


def _bits(prec_bits: int, auto: int) -> int:
    """The working precision: ``prec_bits`` when set, else ``auto``.

    An explicit precision must be at least 53 bits and is used as-is (the
    cancellation guard then aborts rather than return noise).
    """
    if prec_bits and prec_bits < 53:
        raise ValueError("explicit precision must be at least 53 bits")
    return prec_bits or auto


def _alternating_sum(bind, n_stop: int, logmax: float, prec_bits: int) -> float:
    """sum_{n=1}^{n_stop} (-1)^(n-1) exp(log_term(n)), log_term = bind(arithmetic).

    ``logmax`` bounds the largest log term.  With no explicit precision and
    terms of at most 2**30 the sum is one float64 pass.  Otherwise mpmath
    sums it, at ``prec_bits`` as given or at the precision that returns the
    correctly rounded float: a log term is off by about n_stop ulps of its
    largest log-Gamma piece P ~ lgamma(2 n_stop + 2), exp turns that into a
    relative error of each term, and the sum must keep _ROUND_BITS of
    max|term| / |sum|.  The first pass assumes |sum| >= 2**-_SUM_FLOOR_BITS
    and sums once more at the precision |sum| asks for if it is smaller.
    """
    if not prec_bits and logmax <= _FLOAT64_MAX_LOG_TERM:
        terms = np.exp(bind(_Float64)(np.arange(1, n_stop + 1, dtype=np.float64)))
        terms[1::2] *= -1.0
        # ascending-order pairwise reduction is fine at this magnitude
        return float(terms.sum())
    spread = max(logmax, 0.0) / _LN2 + math.log2(n_stop * math.lgamma(2 * n_stop + 2))
    bits = _bits(prec_bits, int(spread) + _ROUND_BITS + _SUM_FLOOR_BITS)
    total, maxterm = _mp_sum(bind, n_stop, bits)
    if not prec_bits and total and mp.mag(total) < 1 - _SUM_FLOOR_BITS:
        bits = int(spread) + _ROUND_BITS + 1 - mp.mag(total)
        total, maxterm = _mp_sum(bind, n_stop, bits)
    if maxterm > abs(total) * mp.mpf(2) ** (bits - _GUARD_BITS):
        raise CancellationError(
            f"lost all but {_GUARD_BITS} guard bits at {bits} bits; raise prec_bits"
        )
    return float(total)


def _mp_sum(bind, n_stop: int, bits: int):
    """(sum, max|term|) of the alternating series in mpmath at ``bits``."""
    with mp.workprec(bits):
        log_term = bind(_Mpmath())
        total = maxterm = mp.mpf(0)
        for n in range(1, n_stop + 1):
            term = mp.exp(log_term(n))
            maxterm = max(maxterm, term)
            total += term if n % 2 == 1 else -term
        return total, maxterm


# --------------------------------------------------------------------- #
# Length distribution                                                     #
# --------------------------------------------------------------------- #


def _length_log_term(q: float, lamq: float, x: float, pdf: bool = False):
    """log|term_n| of the length series: B_n (lam q x)^n / (n!)^2 for the
    CDF, times n/x for the density."""
    def bind(ar):
        qa, lf = ar.num(q), ar.log(ar.num(lamq) * ar.num(x))
        lx = ar.log(ar.num(x)) if pdf else None

        def log_term(n):
            lt = ar.plus_log_B(0, n, qa) + n * lf - 2 * ar.lgamma(n + 1)
            if pdf:
                lt += ar.log(n) - lx
            return lt
        return log_term
    return bind


def _length_scan(q: float, lamq: float, x: float):
    """(n_stop, log max|term|) of the length CDF series at x.

    Terms decay superexponentially after their peak; the scan stops once
    120 nats below the peak, and below e^-99 when the peak is past the
    float64 range (the sum stays O(1) however large its terms).  The
    density's terms differ by n/x, so the same scan sizes its sum too.
    """
    log_term = _length_log_term(q, lamq, x)(_Float64)
    logmax = -math.inf
    n = 0
    block = 64
    while n < _MAX_TERMS:
        ns = np.arange(n + 1, min(n + 1 + block, _MAX_TERMS + 1), dtype=np.float64)
        lt = log_term(ns)
        logmax = max(logmax, float(lt.max()))
        n = int(ns[-1])
        small = lt < min(logmax, _FLOAT64_MAX_LOG_TERM) - 120.0
        if small[-1]:
            if logmax > _FLOAT64_MAX_LOG_TERM:
                # the terms are log-concave in n: mpmath, which sums them
                # one at a time, stops at the first small one
                n = int(ns[small.argmax()])
            return n, logmax
        block = min(2 * block, 8192)
    raise CancellationError(f"series term scan exceeded {_MAX_TERMS} terms")


def _length_series(q: float, lam: float, x: float, pdf: bool, prec_bits: int) -> float:
    _check_q_lam(q, lam)
    _check_finite(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return lam * q if pdf else 0.0
    lamq = lam * q
    n_stop, logmax = _length_scan(q, lamq, x)
    if pdf:
        logmax += math.log(max(n_stop, 1)) - math.log(x)
    return _alternating_sum(_length_log_term(q, lamq, x, pdf), n_stop, logmax, prec_bits)


def length_pdf(q: float, lam: float, x: float, *, prec_bits: int = 0) -> float:
    """Density of total tree length at x; ell(0) = lam*q.

    ``prec_bits`` = 0 sizes the precision from the term scan: float64 while
    the terms stay below 2**30 (not correctly rounded; the error grows with
    the largest term), else mpmath returning the correctly rounded value.
    An explicit value (>= 53) forces the mpmath sum at that precision.
    """
    return _length_series(q, lam, float(x), True, prec_bits)


def length_cdf(q: float, lam: float, x: float, *, prec_bits: int = 0) -> float:
    """P(length <= x); ``prec_bits`` as for :func:`length_pdf`."""
    return _length_series(q, lam, float(x), False, prec_bits)


def length_cdf_grid(q: float, lam: float, xs) -> np.ndarray:
    """Vectorized CDF on a grid; float64 fast path only.

    Raises :class:`CancellationError` when the largest x needs extended
    precision, that is beyond :func:`length_cdf_grid_limit`.
    """
    _check_q_lam(q, lam)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        return np.zeros(0)
    if np.any(xs < 0):
        raise ValueError("x must be >= 0")
    xmax = float(xs.max())
    _check_finite(xmax)
    if xmax == 0.0:
        return np.zeros_like(xs)
    lamq = lam * q
    n_stop, logmax = _length_scan(q, lamq, xmax)
    if logmax > _FLOAT64_MAX_LOG_TERM:
        raise CancellationError(
            f"x up to {xmax:g} needs extended precision; restrict the grid "
            f"or evaluate pointwise with length_cdf"
        )
    # the coefficients of x^n are the terms at x = 1
    n = np.arange(1, n_stop + 1, dtype=np.float64)
    coeff = np.exp(_length_log_term(q, lamq, 1.0)(_Float64)(n))
    coeff[1::2] *= -1.0
    out = np.zeros_like(xs)
    pos = xs > 0
    xp = xs[pos]
    acc = np.zeros_like(xp)
    for c in coeff[::-1]:
        acc = acc * xp + c
    out[pos] = acc * xp
    return out


def length_cdf_grid_limit(q: float, lam: float) -> float:
    """The largest x (to 40 bisection steps) that :func:`length_cdf_grid`
    evaluates in float64."""
    _check_q_lam(q, lam)
    lamq = lam * q

    def fits(x):
        return _length_scan(q, lamq, x)[1] < _FLOAT64_MAX_LOG_TERM

    lo, hi = 1.0, 2.0
    while fits(hi):
        lo, hi = hi, hi * 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def length_tail(q: float, lam: float, x: float) -> float:
    """Asymptotic tail 1 - L(x) ~ x^-q / ((lam q)^q Gamma(1-q)); not exact."""
    _check_q_lam(q, lam)
    if x <= 0:
        raise ValueError("x must be > 0")
    return x ** (-q) / ((lam * q) ** q * math.gamma(1.0 - q))


# Bessel-based closed forms for the binary case q = 1/2 (cross-check oracle)

def bessel_i0(x: float, *, prec_bits: int = 0) -> float:
    return _bessel_eval(x, prec_bits, lambda z: _bessel_series(z, 0))


def bessel_i1(x: float, *, prec_bits: int = 0) -> float:
    return _bessel_eval(x, prec_bits, lambda z: _bessel_series(z, 1))


def _bessel_eval(x: float, prec_bits: int, f) -> float:
    """float(f(x)), rounded once, with f evaluated at a precision sized to
    e^x, the magnitude of the positive-term sums it takes."""
    _check_finite(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    with mp.workprec(_bits(prec_bits, int(1.45 * x) + 80)):
        return float(f(mp.mpf(x)))


def _bessel_series(z, nu: int):
    """I_nu(z) by its power series at the working precision; all terms positive."""
    h = z / 2
    term = h ** nu / mp.factorial(nu)
    total = term
    k = 1
    while True:
        term *= h * h / (k * (k + nu))
        total += term
        if term <= total * mp.mpf(2) ** (8 - mp.mp.prec):
            return total
        k += 1
        if k > _MAX_TERMS:
            raise CancellationError(f"Bessel series exceeded {_MAX_TERMS} terms")


def length_pdf_bessel_binary(lam: float, x: float, *, prec_bits: int = 0) -> float:
    """q = 1/2 closed form: ell(x) = e^(-lam x) I_1(lam x) / x."""
    if x <= 0:
        raise ValueError("x must be > 0 (ell(0) = lam/2 by the series)")
    return _bessel_eval(lam * x, prec_bits, lambda z: mp.exp(-z) * _bessel_series(z, 1) / x)


def length_cdf_bessel_binary(lam: float, x: float, *, prec_bits: int = 0) -> float:
    """q = 1/2 closed form: L(x) = 1 - e^(-lam x)(I_0 + I_1)(lam x)."""
    return _bessel_eval(lam * x, prec_bits, lambda z: 1 - mp.exp(-z) * (
        _bessel_series(z, 0) + _bessel_series(z, 1)))


# --------------------------------------------------------------------- #
# Size (edge count) distribution                                          #
# --------------------------------------------------------------------- #


def size_pmf(q, n: int, *, prec_bits: int = 0):
    """P(#edges = n).  Fraction q -> exact Fraction; float q -> float.

    q lies in [1/2, 1) and n is a Python or numpy integer >= 1; any other n,
    floats such as 3.0, 2.5 and nan included, raises ValueError.
    ``prec_bits`` applies to float q, as for :func:`length_pdf`.
    """
    _check_q(q)
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, not {n!r}")
    return _size_series(q, int(n), 0, prec_bits)


def size_cdf(q, x: float, *, prec_bits: int = 0):
    """P(#edges <= x), via the binomial-telescoped form.

    q lies in [1/2, 1) and x is any finite real (nan and inf raise
    ValueError); x < 1 gives 0.  Fraction q -> exact Fraction; float q ->
    float, with ``prec_bits`` as for :func:`length_pdf`.
    """
    _check_q(q)
    _check_finite(x)
    N = int(math.floor(x))
    if N < 1:
        return Fraction(0) if isinstance(q, Fraction) else 0.0
    return _size_series(q, N, 1, prec_bits)


def _size_log_term(q: float, N: int, s: int):
    """log|term_k| of :func:`_size_series`: a binomial, B_k and q^k / k!."""
    def bind(ar):
        qa = ar.num(q)
        lgN, lq = ar.lgamma(N + s), ar.log(qa)

        def log_term(n):
            logbin = lgN - ar.lgamma(n + s) - ar.lgamma(N - n + 1)
            return ar.plus_log_B(logbin, n, qa) + n * lq - ar.lgamma(n + 1)
        return log_term
    return bind


def _size_series(q, N: int, s: int, prec_bits: int):
    """sum_{k=1}^{N} (-1)^(k-1) C(N-1+s, k-1+s) B_k q^k / k!: the pmf at N
    (s = 0) or the CDF up to N (s = 1)."""
    if isinstance(q, Fraction):
        # with q = a/b, term_k = C a prod_{j<k-1} (k b - j a) / (b^k k!): sum
        # the numerators over b^N N!, scale = b^(N-k) N!/k!, in integers
        a, b = q.numerator, q.denominator
        total, scale = 0, 1
        for k in range(N, 0, -1):
            term = math.comb(N - 1 + s, k - 1 + s) * _B_numer(k, a, b) * scale
            total += term if k % 2 == 1 else -term
            scale *= k * b
        return Fraction(a * total, b ** N * math.factorial(N))
    bind = _size_log_term(float(q), N, s)
    logmax = float(bind(_Float64)(np.arange(1, N + 1, dtype=np.float64)).max())
    return _alternating_sum(bind, N, logmax, prec_bits)


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
        qs = [d.pmf_fraction(k) for k in range(n_max + 1)]
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
    _check_q(q)
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
        a, b = q.numerator, q.denominator
        out = []
        for n in range(1, N + 1):
            w = Fraction(_B_numer(n, a, b), a ** (n - 1) * math.factorial(n))
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


# the pruned and colored offspring laws are tabulated on m = 0.._MMAX; the
# rest of their mass is the analytic tail
_MMAX = 64


def pushforward_offspring(d: OffspringDistribution, p: float) -> PushforwardLaw:
    """Offspring law {g_m} of a pruned tree, survival probability p.

    g_0 = (Q(1-p) - (1-p)) / (p (1 - Q'(1-p)));
    g_m = p^(m-1) Q^(m)(1-p) / (m! (1 - Q'(1-p))) for m >= 2.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if d.classify() == "supercritical":
        raise ValueError("pushforward defined for critical/subcritical laws")
    if p == 1.0:
        pmf = d.pmf_array(_MMAX)
        return PushforwardLaw(1.0, pmf, float(max(0.0, 1 - pmf.sum())), 1.0, 0.0)
    z = 1.0 - p
    omq = d.one_minus_qprime(z)
    log_denom = math.log(omq)
    g = np.zeros(_MMAX + 1)
    g[0] = d.assumption_ratio(z)  # == q_minus_z(z)/(p * omq)
    lp = math.log(p)
    taylor = 0.0  # sum_{2<=m<=M} p^m Q^(m)(1-p)/m!
    lqs = d.log_Q_derivs(z, _MMAX)
    for m in range(2, _MMAX + 1):
        lq = lqs[m]
        if lq == -math.inf:
            continue
        g[m] = math.exp(lq + (m - 1) * lp - math.lgamma(m + 1) - log_denom)
        taylor += math.exp(lq + m * lp - math.lgamma(m + 1))
    # analytic completion: sum_{m>M} p^m Q^(m)(1-p)/m! = 1 - Q(1-p) - p Q'(1-p) - taylor,
    # with 1 - Q(1-p) = p - q_minus_z(1-p) and Q'(1-p) = 1 - omq
    rest = (p - d.q_minus_z(z)) - p * (1.0 - omq) - taylor
    tail = max(rest, 0.0) / (p * omq)
    defect = abs(g.sum() + tail - 1.0)
    if defect > 1e-8:
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
        return 1.0 - d.one_minus_qprime(z)
    y = (1.0 - p) + p * z
    return 1.0 - d.one_minus_qprime(y) / d.one_minus_qprime(1.0 - p)


# --------------------------------------------------------------------- #
# Bernoulli leaf coloring                                                 #
# --------------------------------------------------------------------- #


# the survival fixed point stops when an iteration moves f by at most this
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 100_000


def coloring_survival(d: OffspringDistribution, p: float) -> float:
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
    for _ in range(_FIXED_POINT_MAX_ITER):
        fn = d.Q(f) - q0 * (1.0 - p)
        if abs(fn - f) <= _FIXED_POINT_TOL:
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


def coloring_offspring(d: OffspringDistribution, p: float, variant: str = "thinned"):
    """Offspring pmf implied by each coloring variant (for adjudication).

    The thinned variant is exactly the pruning pushforward at survival g_p.
    The as-printed variant is differentiated at z = 0; it need not even
    normalize, which the report surfaces.
    """
    g_p = coloring_survival(d, p)
    if variant == "thinned":
        law = pushforward_offspring(d, g_p)
        return g_p, law.pmf, law.tail_mass
    if variant != "as-printed":
        raise ValueError(f"unknown variant {variant!r}")
    omq = d.one_minus_qprime(1.0 - g_p)
    pmf = np.zeros(_MMAX + 1)
    pmf[0] = (d.Q(1.0 - p) - (1.0 - g_p)) / (g_p * omq)
    lqs = d.log_Q_derivs(1.0 - p, _MMAX)
    for m in range(2, _MMAX + 1):
        lq = lqs[m]
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
