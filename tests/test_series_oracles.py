"""Series values against independent oracles, bit for bit.

Past the float64 range the length and size series are summed in mpmath at a
precision sized to return the correctly rounded float.  Each case draws its
parameters from ``CounterStream(SEED, case, domain)``, so a failing case
reproduces from its number alone.  Oracles: the exact ``Fraction`` size law
(its float is the correctly rounded value), the Bessel closed forms at
q = 1/2 and, at other q, the same series at ``prec_bits=1200`` (1,200 and
3,000 bits agree on every case).  Every point lies past the float64 range,
where the largest term exceeds 2**30.
"""

from fractions import Fraction

import pytest

from igwlab import analytics as A
from igwlab.rng import CounterStream

SEED = 0x5E41E5
NAMED_Q = (0.5, 2 / 3, 0.9)


def _draw(case: int, domain: int):
    return CounterStream(SEED, case, domain).uniforms(4)


def _same(got: float, want: float, what: str):
    assert got.hex() == want.hex(), f"{what}: {got!r} != oracle {want!r}"


@pytest.mark.parametrize("case", range(16))
def test_size_law_equals_its_fraction_sum(case):
    u = _draw(case, 1)
    q = NAMED_Q[case] if case < len(NAMED_Q) else float(0.5 + 0.5 * u[0])
    N = 60 + int(360 * u[1])
    _same(A.size_cdf(q, N), float(A.size_cdf(Fraction(q), N)), f"case {case}: size_cdf({q!r}, {N})")
    if q == 0.5:
        N |= 1  # at q = 1/2 a tree has an odd number of edges: the pmf is 0 at even N
    _same(A.size_pmf(q, N), float(A.size_pmf(Fraction(q), N)), f"case {case}: size_pmf({q!r}, {N})")


@pytest.mark.parametrize("case", range(16))
def test_binary_length_law_equals_bessel(case):
    u = _draw(case, 2)
    lam = (0.5, 1.0, 2.0)[int(3 * u[0])]
    x = float(25.0 + 175.0 * u[1]) / lam
    bits = int(1.45 * lam * x) + 300
    what = f"case {case}: lam={lam!r}, x={x!r}"
    _same(A.length_cdf(0.5, lam, x), A.length_cdf_bessel_binary(lam, x, prec_bits=bits),
          "cdf " + what)
    _same(A.length_pdf(0.5, lam, x), A.length_pdf_bessel_binary(lam, x, prec_bits=bits),
          "pdf " + what)


@pytest.mark.parametrize("case", range(3))
def test_length_law_equals_high_precision_sum(case):
    u = _draw(case, 3)
    q = NAMED_Q[case + 1] if case + 1 < len(NAMED_Q) else float(0.5 + 0.5 * u[0])
    x = float(30.0 + 50.0 * u[1])
    f = A.length_cdf if u[2] < 0.5 else A.length_pdf
    _same(f(q, 1.0, x), f(q, 1.0, x, prec_bits=1200), f"case {case}: {f.__name__}({q!r}, 1, {x!r})")
