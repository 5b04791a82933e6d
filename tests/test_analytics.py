"""Closed-form laws: worked values, dual-route identities, exact rational
size law vs. the convolution oracle, series precision behavior, pushforward
algebra, coloring fixed point, and the attractor limit."""

import math
from fractions import Fraction
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ive

from igwlab import analytics as A
from igwlab import offspring as O


class TestHeight:
    def test_binary_closed_form(self):
        # q = 1/2: H(x) = lam x / (lam x + 2)
        for lam in (0.5, 1.0, 2.0):
            for x in (0.1, 1.0, 5.0):
                assert A.height_cdf(0.5, lam, x) == pytest.approx(
                    lam * x / (lam * x + 2.0), abs=1e-12)

    def test_worked_values(self):
        assert A.height_cdf(0.5, 1.0, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert A.height_cdf(2 / 3, 1.0, 3.0) == pytest.approx(0.75, abs=1e-12)
        assert A.height_cdf(0.7, 1.0, 0.0) == 0.0

    def test_monotone_to_one(self):
        xs = np.linspace(0, 200, 400)
        H = A.height_cdf(0.8, 1.0, xs)
        assert np.all(np.diff(H) > 0) and H[-1] > 0.95

    @pytest.mark.parametrize("q", [0.5, 2 / 3, 0.9])
    def test_ode_residual(self, q):
        """H' = lam q (1 - H)^(1/q), checked by central differences."""
        grid = np.linspace(0.05, 10.0, 100)
        assert A.height_ode_max_residual(q, 1.0, grid) <= 1e-8

    def test_survival_complements_cdf(self):
        for t in (0.0, 0.5, 3.0):
            s = A.height_survival_pt(2 / 3, 1.5, t)
            assert s == pytest.approx(1.0 - A.height_cdf(2 / 3, 1.5, t), abs=1e-14)
        assert A.height_survival_pt(0.6, 1.0, 0.0) == 1.0

    def test_rate_identity(self):
        """lam p_t^((1-q)/q) = lam/(lam(1-q)t + 1) on a grid."""
        q, lam = 0.75, 2.0
        for t in np.linspace(0, 20, 41):
            pt = A.height_survival_pt(q, lam, t)
            assert lam * pt ** ((1 - q) / q) == pytest.approx(
                lam / (lam * (1 - q) * t + 1.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            A.height_cdf(0.4, 1.0, 1.0)
        with pytest.raises(ValueError):
            A.height_cdf(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            A.height_cdf(0.5, 1.0, -1.0)


class TestLength:
    def test_density_at_zero_is_lam_q(self):
        for q, lam in ((0.5, 1.0), (0.7, 2.5)):
            assert A.length_pdf(q, lam, 0.0) == pytest.approx(lam * q, abs=1e-15)
        assert A.length_cdf(0.6, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_binary_matches_bessel(self, x):
        assert A.length_pdf(0.5, 1.0, x) == pytest.approx(
            A.length_pdf_bessel_binary(1.0, x), abs=1e-8)
        assert A.length_cdf(0.5, 1.0, x) == pytest.approx(
            A.length_cdf_bessel_binary(1.0, x), abs=1e-8)

    def test_bessel_series_against_scipy(self):
        for x in (0.3, 2.0, 20.0):
            assert A.bessel_i0(x) * math.exp(-x) == pytest.approx(ive(0, x), rel=1e-10)
            assert A.bessel_i1(x) * math.exp(-x) == pytest.approx(ive(1, x), rel=1e-10)

    def test_cdf_nondecreasing_and_grid_matches_pointwise(self):
        xs = np.linspace(0.0, 8.0, 50)
        for q in (0.5, 2 / 3):
            grid = A.length_cdf_grid(q, 1.0, xs)
            assert np.all(np.diff(grid) >= 0)
            for i in (3, 25, 49):
                assert grid[i] == pytest.approx(A.length_cdf(q, 1.0, xs[i]), abs=1e-9)

    def test_pdf_integrates_to_cdf(self):
        """Quadrature of the density against the CDF, lam q x <= 5."""
        from scipy.integrate import quad

        for q in (0.5, 0.75):
            val, err = quad(lambda u: A.length_pdf(q, 1.0, u), 0.0, 4.0, limit=200)
            assert val == pytest.approx(A.length_cdf(q, 1.0, 4.0), abs=1e-6)

    def test_extended_precision_path_agrees(self):
        """Force mpmath summation; must agree with the float64 path."""
        for x in (0.5, 2.0):
            assert A.length_cdf(0.5, 1.0, x, prec_bits=150) == pytest.approx(
                A.length_cdf(0.5, 1.0, x), abs=1e-12)

    def test_fraction_q_reads_as_its_float(self):
        # the mpmath sum raised TypeError: cannot create mpf from Fraction(1, 2)
        for f in (A.length_cdf, A.length_pdf):
            assert f(Fraction(1, 2), 1.0, 30.0) == f(0.5, 1.0, 30.0)

    def test_cancellation_guard_raises(self):
        with pytest.raises(A.CancellationError):
            A.length_cdf(0.5, 1.0, 120.0, prec_bits=53)
        with pytest.raises(A.CancellationError):
            A.length_cdf_grid(0.5, 1.0, np.array([200.0]))

    def test_policy_validation(self):
        for f in (A.length_cdf, A.length_pdf):
            with pytest.raises(ValueError):
                f(0.5, 1.0, 2.0, prec_bits=32)
        with pytest.raises(ValueError):
            A.bessel_i0(2.0, prec_bits=52)

    def test_tail_ratio_binary(self):
        # 1 - L(x) ~ sqrt(2/(lam pi)) x^(-1/2) at q = 1/2
        assert A.length_tail(0.5, 1.0, 10.0) == pytest.approx(
            math.sqrt(2 / math.pi) / math.sqrt(10.0), rel=1e-12)
        r = (1 - A.length_cdf_bessel_binary(1.0, 50.0)) / A.length_tail(0.5, 1.0, 50.0)
        assert 0.9 <= r <= 1.1

    def test_tail_trend_heavy(self):
        ratios = [(1 - A.length_cdf(2 / 3, 1.0, x)) / A.length_tail(2 / 3, 1.0, x)
                  for x in (10.0, 30.0, 50.0)]
        assert abs(ratios[2] - 1) < abs(ratios[1] - 1) < abs(ratios[0] - 1)

    def test_scan_keeps_every_term_that_counts(self):
        # the scan used to stop 120 nats below the peak, which past 2**30
        # dropped terms up to e^1237: length_cdf(0.5, 1, 200) read -6e44
        for x in (80.0, 200.0, 250.0):
            assert A.length_cdf(0.5, 1.0, x) == A.length_cdf_bessel_binary(1.0, x)

    def test_bessel_oracles_round_once(self):
        # the closed forms used to round I_nu to a float before scaling it
        with mp.workprec(2000):
            for x in (1.0, 3.0, 5.0, 20.0, 70.0, 150.0):
                z = mp.mpf(x)
                i0, i1 = mp.besseli(0, z), mp.besseli(1, z)
                assert A.length_cdf_bessel_binary(1.0, x) == float(1 - mp.exp(-z) * (i0 + i1))
                assert A.length_pdf_bessel_binary(1.0, x) == float(mp.exp(-z) * i1 / z)
        assert (A.bessel_i0(0.0), A.bessel_i1(0.0)) == (1.0, 0.0)

    # before the checks, nan and inf ran the 200,000-term scan into a
    # CancellationError, or a bare int(nan) ValueError in the oracles
    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_needs_a_finite_x(self, x):
        for f in (A.length_cdf, A.length_pdf, A.length_tail,
                  lambda q, lam, x: A.length_cdf_grid(q, lam, [1.0, x])):
            with pytest.raises(ValueError, match=f"x must be finite, not {x!r}"):
                f(0.5, 1.0, x)
        for f in (A.bessel_i0, A.bessel_i1, partial(A.length_cdf_bessel_binary, 1.0),
                  partial(A.length_pdf_bessel_binary, 1.0)):
            with pytest.raises(ValueError, match=f"x must be finite, not {x!r}"):
                f(x)
        # the height law keeps its limits at inf, and used to return nan at nan
        if math.isinf(x):
            assert (A.height_cdf(0.5, 1.0, x), A.height_survival_pt(0.5, 1.0, x)) == (1.0, 0.0)
            return
        for f, name in ((A.height_cdf, "x"), (A.height_survival_pt, "t"),
                        (lambda q, lam, x: A.height_cdf(q, lam, [1.0, x]), "x")):
            with pytest.raises(ValueError, match=f"{name} must be >= 0, not nan"):
                f(0.5, 1.0, x)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_needs_a_finite_lam(self, lam):
        for f in (A.length_cdf, A.length_pdf, A.height_cdf, A.height_survival_pt,
                  lambda q, lam, x: A.length_cdf_grid(q, lam, [x])):
            with pytest.raises(ValueError, match=f"lam must be finite and > 0, not {lam!r}"):
                f(0.5, lam, 1.0)


class TestSize:
    def test_spot_values_binary(self):
        assert A.size_pmf(Fraction(1, 2), 1) == Fraction(1, 2)
        assert A.size_pmf(Fraction(1, 2), 2) == 0
        assert A.size_pmf(Fraction(1, 2), 3) == Fraction(1, 8)

    def test_first_term_telescopes_to_q(self):
        assert A.size_pmf(Fraction(2, 3), 1) == Fraction(2, 3)
        assert A.size_pmf(Fraction(9, 10), 1) == Fraction(9, 10)

    @pytest.mark.parametrize("qf", [Fraction(1, 2), Fraction(2, 3)])
    def test_exact_equals_convolution_oracle(self, qf):
        d = O.IGW(float(qf))
        oracle = A.size_pmf_oracle(d, 30, exact=True)
        for n in range(1, 31):
            assert oracle[n] == A.size_pmf(qf, n)

    def test_oracle_float_mode_any_law(self):
        d = O.GeometricCritical(0.5)
        alpha = A.size_pmf_oracle(d, 12, exact=False)
        assert alpha[1] == pytest.approx(d.pmf(0), abs=1e-15)
        assert alpha[2] == 0.0
        # 3 edges: first vertex has 2 children, both leaves
        assert alpha[3] == pytest.approx(d.pmf(2) * d.pmf(0) ** 2, abs=1e-15)
        assert A.size_pmf_oracle(O.FiniteTable([1.0]), 5, exact=False)[1] == 1.0

    def test_cdf_is_partial_sum(self):
        qf = Fraction(2, 3)
        s = sum(A.size_pmf(qf, n) for n in range(1, 16))
        assert A.size_cdf(qf, 15) == s
        assert A.size_cdf(qf, 15.9) == s

    def test_float_mode_tracks_exact(self):
        # the float law is the exact sum at q's rational value, rounded once.
        # A float64 series was off by 10% at q = 0.9, N = 30, gave -7.1e-15
        # at q = 1/2, N = 10, raised CancellationError at even N from 26 and
        # read size_cdf(0.5, 2) < size_cdf(0.5, 1)
        for n in range(1, 201):
            m, even = divmod(n - 1, 2)  # 2m + 1 edges: m branch points
            catalan = math.comb(2 * m, m) // (m + 1)
            assert A.size_pmf(0.5, n) == (0.0 if even else catalan / 2 ** n)
        cdf = [A.size_cdf(0.5, n) for n in range(1, 201)]
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))
        for q in (2 / 3, 0.9):
            oracle = A.size_pmf_oracle(O.IGW(q), 60, exact=True)
            for n in range(1, 61):
                assert A.size_pmf(q, n) == pytest.approx(float(oracle[n]), rel=1e-15, abs=0)

    def test_tail_constant_monotone_in_q(self):
        # 1/(q^q Gamma(1-q)) -> 0 as q -> 1-
        vals = [A.size_tail(q, 100.0) * 100.0 ** q for q in (0.5, 0.7, 0.9, 0.99)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("q", [0.5, Fraction(1, 2)])
    @pytest.mark.parametrize("n", [2.5, 3.0, math.nan, math.inf, 0, -1])
    def test_pmf_needs_an_integer_n(self, q, n):
        with pytest.raises(ValueError, match=f"n must be an integer >= 1, not {n!r}"):
            A.size_pmf(q, n)

    def test_numpy_integers_accepted(self):
        assert A.size_pmf(Fraction(1, 2), np.int64(3)) == Fraction(1, 8)
        assert A.size_pmf(0.5, np.int32(3)) == A.size_pmf(0.5, 3)
        assert A.size_cdf(Fraction(1, 2), np.int64(3)) == A.size_cdf(Fraction(1, 2), 3)

    @pytest.mark.parametrize("q", [0.5, Fraction(1, 2)])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_cdf_needs_a_finite_x(self, q, x):
        for f in (A.size_cdf, A.size_tail):
            with pytest.raises(ValueError, match=f"x must be finite, not {x!r}"):
                f(q, x)

    def test_exact_tail_vs_asymptotic(self):
        tail = 1 - A.size_cdf(Fraction(1, 2), 1000)
        assert float(tail) / A.size_tail(0.5, 1000.0) == pytest.approx(1.0, abs=0.1)


class TestLagrange:
    def test_signed_catalan(self):
        w = A.lagrange_w_coeffs(Fraction(1, 2), 10)
        assert [int(v) for v in w] == [1, -2, 5, -14, 42, -132, 429, -1430, 4862, -16796]

    def test_first_coefficient_is_one(self):
        for q in (0.5, 2 / 3, 0.9):
            assert A.lagrange_w_coeffs(q, 1)[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("q", [0.5, 2 / 3, 0.9, 0.6180339887498949, 0.7312])
    def test_float_coefficients_are_the_exact_ones_rounded_once(self, q):
        exact = A.lagrange_w_coeffs(Fraction(q), 420)
        assert A.lagrange_w_coeffs(q, 420).tolist() == [float(w) for w in exact]

    @pytest.mark.parametrize("q", [0.5, 2 / 3, 0.9])
    def test_roundtrip(self, q):
        assert A.lagrange_roundtrip_residual(q, 0.05) <= 1e-10

    def test_series_coefficients_match_size_series(self):
        """The edge-count pmf is the binomial transform of the inverse series."""
        qf = Fraction(2, 3)
        w = A.lagrange_w_coeffs(qf, 6)
        n = 6
        total = sum(math.comb(n - 1, k - 1) * w[k - 1] * qf ** k for k in range(1, n + 1))
        assert total == A.size_pmf(qf, n)


class TestPushforward:
    def test_invariance_of_the_power_family(self):
        d = O.IGW(0.75)
        ref = d.pmf_array(64)
        for p in (0.9, 0.3, 1e-3):
            law = A.pushforward_offspring(d, p)
            assert np.max(np.abs(law.pmf - ref)) < 1e-10
            assert law.rate_multiplier == pytest.approx(p ** ((1 - 0.75) / 0.75), rel=1e-12)

    def test_power_family_at_half_is_binary(self):
        """Q of igw:0.5 is quadratic, so its third and higher derivatives
        vanish; their logs used to raise a math domain error."""
        for p in (1e-4, 0.02, 0.5):
            a = A.pushforward_offspring(O.IGW(0.5), p)
            b = A.pushforward_offspring(O.from_spec("binary"), p)
            assert np.array_equal(a.pmf, b.pmf) and a.tail_mass == b.tail_mass

    def test_p_one_is_identity(self):
        d = O.GeometricCritical()
        law = A.pushforward_offspring(d, 1.0)
        assert np.allclose(law.pmf, d.pmf_array(64), atol=0)

    def test_binary_half_worked_example(self):
        law = A.pushforward_offspring(O.from_spec("binary"), 0.5)
        assert law.g0 == pytest.approx(0.5, abs=1e-12)
        assert law.pmf[2] == pytest.approx(0.5, abs=1e-12)

    def test_normalization_defect_small(self):
        for spec in ("zipf:1.5", "geom:0.5", "table:[0.6,0,0.4]"):
            for p in (0.5, 1e-2, 1e-4):
                law = A.pushforward_offspring(O.from_spec(spec), p)
                assert law.normalization_defect <= 1e-10

    def test_criticality_preserved(self):
        """|G'(1) - 1| <= 1e-9 for critical inputs, any p."""
        for spec in ("zipf:1.5", "geom:0.5", "binary", "igw:0.8"):
            d = O.from_spec(spec)
            for p in (0.9, 0.5, 0.01, 1e-4):
                assert A.pushforward_Q_prime(d, p, 1.0) == pytest.approx(1.0, abs=1e-9)
        # subcritical input drops strictly below 1
        sub = O.FiniteTable([0.6, 0, 0.4])
        assert A.pushforward_Q_prime(sub, 0.5, 1.0) < 0.7

    @pytest.mark.parametrize("spec", ["igw:0.7", "binary", "table:[0.6,0,0.4]", "zipf:1.5",
                                      "geom:0.5"])
    def test_Q_prime_at_p_one_is_the_laws_own(self, spec):
        """At p = 1 the pushforward is the law itself, so G' is Q': a central
        difference of Q, and q1 = 0 at z = 0."""
        d = O.from_spec(spec)
        h = 1e-6
        for z in (0.1, 0.5, 0.9, 0.99):
            slope = (d.Q(z + h) - d.Q(z - h)) / (2 * h)
            assert A.pushforward_Q_prime(d, 1.0, z) == pytest.approx(slope, rel=1e-8)
        assert A.pushforward_Q_prime(d, 1.0, 0.0) == 0.0

    def test_pushforward_Q_endpoints_and_subcritical_limit(self):
        sub = O.FiniteTable([0.6, 0, 0.4])
        for spec in ("igw:0.6", "zipf:1.5"):
            assert A.pushforward_Q(O.from_spec(spec), 0.5, 1.0) == pytest.approx(1.0, abs=1e-12)
        for z in (0.0, 0.4, 0.9):
            assert A.pushforward_Q(sub, 1e-6, z) == pytest.approx(1.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            A.pushforward_offspring(O.from_spec("binary"), 0.0)
        with pytest.raises(ValueError):
            A.pushforward_offspring(O.FiniteTable([0.4, 0, 0.6]), 0.5)


class TestColoring:
    def test_p_zero_always_survives(self):
        assert A.coloring_survival(O.from_spec("binary"), 0.0) == 1.0

    def test_binary_half_quadratic(self):
        g = A.coloring_survival(O.from_spec("binary"), 0.5)
        assert g == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_fixed_point_satisfied(self):
        for spec in ("igw:0.7", "zipf:1.5", "table:[0.6,0,0.4]"):
            d = O.from_spec(spec)
            for p in (0.3, 0.9):
                f = 1.0 - A.coloring_survival(d, p)
                assert f == pytest.approx(d.Q(f) - d.pmf(0) * (1 - p), abs=1e-10)

    def test_thinned_variant_reproduces_Q_for_power_family(self):
        d = O.IGW(2 / 3)
        gp = A.coloring_survival(d, 0.7)
        for z in np.linspace(0.0, 1.0, 7):
            assert A.coloring_Q(d, 0.7, gp, z, "thinned") == pytest.approx(
                d.Q(z), abs=1e-10)

    def test_thinned_variant_normalizes_any_law(self):
        for spec in ("geom:0.5", "zipf:1.5"):
            d = O.from_spec(spec)
            gp = A.coloring_survival(d, 0.6)
            assert A.coloring_Q(d, 0.6, gp, 1.0, "thinned") == pytest.approx(1.0, abs=1e-10)

    def test_printed_variant_fails_normalization(self):
        """The published formula mixes p into the thinning argument; its
        'pmf' does not even sum to one away from the invariant family."""
        d = O.GeometricCritical()
        _, pmf, _ = A.coloring_offspring(d, 0.5, "as-printed")
        assert abs(pmf.sum() - 1.0) > 0.01


class TestAttractorLimit:
    def test_power_family_exact_at_any_x(self):
        d = O.IGW(0.8)
        for x in (0.3, 0.9, 1 - 1e-5):
            assert A.attractor_limit(d, 0.3, x) == pytest.approx(
                A.attractor_target(d, 0.3), rel=1e-10)

    def test_zipf_approaches_target(self):
        d = O.ZipfCritical(1.5)
        tgt = A.attractor_target(d, 0.3)
        assert tgt == pytest.approx(0.7 ** 1.5 / 1.5, abs=0.002)
        val = A.attractor_limit(d, 0.3, 1 - 1e-4)
        assert val == pytest.approx(tgt, rel=0.03)

    def test_subcritical_target_is_one_minus_z(self):
        sub = O.FiniteTable([0.6, 0, 0.4])
        assert A.attractor_target(sub, 0.3) == pytest.approx(0.7, abs=1e-12)
        assert A.attractor_limit(sub, 0.3, 1 - 1e-6) == pytest.approx(0.7, abs=1e-3)
