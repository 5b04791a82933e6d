"""Law values pinned bit for bit.

Every other test of the closed-form laws compares within a tolerance; these
compare exact bits, so a change that reorders a sum or moves a rounding
shows here.  Scalars are pinned by ``float.hex``, arrays by the SHA-256 of
their float64 bytes and exact rationals by the SHA-256 of ``str``.  The
float size law is the exact integer sum at q's own value, rounded once, so
its pins equal the float of the ``Fraction`` law.  Values on the mpmath path
of the length series (x = 120) are the correctly rounded ones: each equals
the Bessel closed form at q = 1/2 and the series at ``prec_bits=2500``.  The
float64-path values and the explicit-precision ones were recorded before
the series evaluators were merged into one.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from igwlab import analytics as A
from igwlab import offspring as O


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


# x = 0.5 and 4 take the float64 path, x = 120 the mpmath path
LENGTH = {
    (0.5, "cdf"): "0x1.969e32b47d8f5p-3",
    (0.5, "pdf"): "0x1.40598cd0be9edp-2",
    (4.0, "cdf"): "0x1.3a7e9d38ad390p-1",
    (4.0, "pdf"): "0x1.6e14eb8e5d200p-5",
    (120.0, "cdf"): "0x1.dabf205a619f1p-1",
    (120.0, "pdf"): "0x1.3d3b10c495a80p-12",
}


@pytest.mark.parametrize("x,kind", sorted(LENGTH))
def test_length_law(x, kind):
    f = A.length_cdf if kind == "cdf" else A.length_pdf
    assert f(0.5, 1.0, x).hex() == LENGTH[x, kind]


def test_length_law_at_explicit_precision():
    assert A.length_cdf(0.5, 1.0, 2.0, prec_bits=150).hex() == "0x1.e7a6d77bb926dp-2"
    assert A.length_pdf(0.5, 1.0, 2.0, prec_bits=150).hex() == "0x1.b8df1ae942419p-4"


def test_length_grid_and_its_limit():
    lim = A.length_cdf_grid_limit(2 / 3, 1.0)
    assert lim.hex() == "0x1.034a60d6d3000p+4"
    grid = A.length_cdf_grid(2 / 3, 1.0, np.linspace(0.0, lim, 64))
    assert _digest(grid) == "1c341257fb5fcd21b147a746affebc4f5ac1bcf5c25609c9e747abd21ef37ed5"


def test_size_law():
    assert A.size_pmf(2 / 3, 30).hex() == "0x1.42c465e3488e6p-10"
    assert A.size_cdf(0.5, 400).hex() == "0x1.eb964037e6fe9p-1"
    exact = A.size_cdf(Fraction(1, 2), 101)
    assert hashlib.sha256(str(exact).encode()).hexdigest() == (
        "3197e8f8c4601a021564d765769e3ae475c01049aebb88bf240bd88f10256316")


PUSHFORWARD = {
    ("zipf:1.5", 1e-3): ("bdbbb105dd35ed96ee1bf84e68068d274ec2f9a484becee2972584f6a6838a07",
                         "0x1.9186245011f2cp-12"),
    ("geom:0.5", 1e-4): ("37d898daf365a27930cf05eadb6f055ee3083bd7c57e7a84c39f84e439053937",
                         "0x0.0p+0"),
    ("table:[0.6,0,0.4]", 1e-4): (
        "2ad1eba34434d5b51a619ea4686c167e0298a9361b78907ed13f49ff1699f05c",
        "0x1.ed1b584e2c6cap-44"),
    ("igw:0.6666666666666666", 0.1): (
        "46ad06ee2d5a20298c0869ba1ae502b4211b85548e9e2938b730333d005e6c67",
        "0x1.836dbf2833293p-12"),
}


@pytest.mark.parametrize("spec,p", sorted(PUSHFORWARD))
def test_pushforward(spec, p):
    law = A.pushforward_offspring(O.from_spec(spec), p)
    assert (_digest(law.pmf), law.tail_mass.hex()) == PUSHFORWARD[spec, p]


def test_coloring_on_binary():
    d = O.from_spec("binary")
    g, pmf, tail = A.coloring_offspring(d, 0.5, "thinned")
    assert (g.hex(), _digest(pmf), tail.hex()) == (
        "0x1.6a09e667f3548p-1",
        "7cd0168bc955be6b2b02d99064dfcaebb749dac03b8fcdde2645c8e897cea3d7", "0x0.0p+0")
    g, pmf, tail = A.coloring_offspring(d, 0.5, "as-printed")
    assert (g.hex(), _digest(pmf), tail.hex()) == (
        "0x1.6a09e667f3548p-1",
        "505a79f01d7ba38d9a0f230d8f604b761016edc20d776a2cc5828c81ef46f8f5", "nan")
    assert A.coloring_survival(d, 0.3).hex() == "0x1.ac5eb3f7ab102p-1"
