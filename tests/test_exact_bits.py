"""The exact evaluators against the per-term code they replaced.

The size series is summed in integers over one common denominator, and each
law returns all orders of log Q^(m) from one call.  Both must give the same
values as the straightforward code, kept here as oracles: the Fraction
series with exact equality, and the per-order derivatives with ``==`` on
floats.  The digests were recorded with the per-term code.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from igwlab import analytics as A
from igwlab import offspring as O


def _sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


def _B_fraction(n, q):
    nq = Fraction(n) / q
    out = Fraction(1)
    for j in range(n - 1):
        out *= nq - j
    return out


def _size_series_oracle(q, N, s, B):
    total = Fraction(0)
    for k in range(1, N + 1):
        term = (Fraction(math.comb(N - 1 + s, k - 1 + s)) * B[k] * q ** k
                / Fraction(math.factorial(k)))
        total += term if k % 2 == 1 else -term
    return total


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(3, 7)])
def test_integer_size_series_equals_fraction_series(q):
    B = [None] + [_B_fraction(k, q) for k in range(1, 61)]
    for N in range(1, 61):
        for s in (0, 1):
            assert A._size_series(q, N, s, 0) == _size_series_oracle(q, N, s, B)
    w = A.lagrange_w_coeffs(q, 60)
    assert w == [(1 if n % 2 else -1) * B[n] / math.factorial(n) for n in range(1, 61)]


def test_size_cdf_digest_at_400():
    assert _sha(str(A.size_cdf(Fraction(1, 2), 400)).encode()) == (
        "909447ba278b2e7db2b7419e1c60a1990d6469a04a7cc3d8a326d179fe427c07")


# log Q^(m)(z) one order at a time, as each law computed it before
def _igw(d, z, m):
    a = d.inv_q
    acc = math.log(d.q)
    for j in range(m):
        if a == j:
            return -math.inf
        acc += math.log(abs(a - j))
    return acc + (a - m) * math.log1p(-z)


def _table(d, z, m):
    if m > d.kmax:
        return -math.inf
    if z == 0.0:
        return math.log(d.pmf(m)) + math.lgamma(m + 1) if d.pmf(m) > 0 else -math.inf
    k = np.arange(m, d.kmax + 1, dtype=np.float64)
    qk = d.probs[m:]
    good = qk > 0
    if not np.any(good):
        return -math.inf
    lt = (gammaln(k[good] + 1.0) - gammaln(k[good] - m + 1.0) + np.log(qk[good])
          + (k[good] - m) * math.log(z))
    return float(logsumexp(lt))


def _zipf(d, z, m):
    if z <= 0.0:
        return math.log(d.pmf(m)) + math.lgamma(m + 1) if d.pmf(m) else -math.inf
    delta = -math.log(z)
    kcap = int((m + 60.0) / delta) + 20 * m + 2000
    k = np.arange(max(m, 2), kcap, dtype=np.float64)
    lt = (gammaln(k + 1.0) - gammaln(k - m + 1.0) - (d.alpha + 1.0) * np.log(k)
          + (k - m) * math.log(z))
    peak = float(lt.max())
    return math.log(d.c) + peak + math.log(np.exp(lt - peak).sum())


def _geom(d, z, m):
    return (math.log(d.c) + math.lgamma(m + 1) + m * math.log(d.r)
            - (m + 1) * math.log1p(-d.r * z))


ORACLE = {O.IGW: _igw, O.FiniteTable: _table, O.ZipfCritical: _zipf,
          O.GeometricCritical: _geom}


@pytest.mark.parametrize("spec", ["igw:0.5", "igw:0.66666666666666663", "igw:0.9", "zipf:1.5",
                                  "geom:0.5", "table:[0.6,0,0.3,0.1]", "binary"])
@pytest.mark.parametrize("z", [0.0, 0.5, 0.9, 0.999])
def test_all_orders_equal_one_order_at_a_time(spec, z):
    d = O.from_spec(spec)
    got = d.log_Q_derivs(z, 64)
    assert got.shape == (65,) and np.isnan(got[:2]).all()
    assert got[2:].tolist() == [ORACLE[type(d)](d, z, m) for m in range(2, 65)]


def test_as_printed_coloring_digest():
    g, pmf, tail = A.coloring_offspring(O.from_spec("zipf:1.5"), 0.01, "as-printed")
    assert (g.hex(), _sha(np.ascontiguousarray(pmf, dtype=np.float64).tobytes())) == (
        "0x1.fbf5fb79ee084p-1",
        "7b69ae13aa0267e4babbfcd9147294a412f47c0fb0bf89dacc3d98e0e1c2ebb7")
    assert math.isnan(tail)
