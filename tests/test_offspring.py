"""Offspring laws: pmf identities, generating-function dual routes, tail
formulas, and the regularity-exponent estimators.

The series route of g is rebuilt from pmf tail sums, so agreement with the
closed Q route is a genuine two-path check; tail formulas are verified
against brute-force partial sums wherever the truncation error permits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from igwlab import offspring as O

ALL_SPECS = ["igw:0.5", "igw:0.66666666666666663", "igw:0.9", "zipf:1.5",
             "zipf:2", "geom:0.5", "binary", "table:[0.6,0,0.4]"]


@pytest.fixture(params=ALL_SPECS)
def law(request):
    return O.from_spec(request.param)


class TestPmfBasics:
    def test_q1_zero_everywhere(self, law):
        assert law.pmf(1) == 0.0

    def test_pmf_nonnegative_and_sums_to_one(self, law):
        arr = law.pmf_array(5000)
        assert np.all(arr >= 0)
        assert arr.sum() <= 1.0 + 1e-12
        # completed by the exact tail
        assert arr.sum() + law.tail_prob(5001) == pytest.approx(1.0, abs=1e-9)

    def test_pmf_array_matches_scalar(self, law):
        arr = law.pmf_array(40)
        for k in (0, 1, 2, 3, 17, 40):
            assert arr[k] == pytest.approx(law.pmf(k), rel=1e-12, abs=1e-300)


class TestIGWFamily:
    def test_definition_values(self):
        assert O.igw_pmf(0.5, 0) == 0.5
        assert O.igw_pmf(0.5, 2) == 0.5
        assert O.igw_pmf(0.5, 3) == 0.0
        assert O.igw_pmf(2 / 3, 2) == pytest.approx(0.25, abs=1e-15)
        assert O.igw_pmf(2 / 3, 3) == pytest.approx(1 / 24, abs=1e-16)

    @pytest.mark.parametrize("q", [0.55, 2 / 3, 0.8, 0.95])
    def test_gamma_ratio_form(self, q):
        """The product recurrence equals the Gamma-ratio closed form."""
        d = O.igw(q)
        for k in range(2, 51):
            assert d.pmf(k) == pytest.approx(d.pmf_gamma(k), rel=1e-9)

    @pytest.mark.parametrize("q", [0.5, 2 / 3, 0.9])
    def test_Q_closed_form_matches_series(self, q):
        d = O.igw(q)
        arr = d.pmf_array(200000)
        ks = np.arange(len(arr))
        for z in np.arange(0.1, 0.95, 0.1):
            series = float(np.sum(arr * z ** ks))
            assert d.Q(z) == pytest.approx(series, abs=1e-10)

    def test_Q_at_endpoints(self, law):
        assert law.Q(0.0) == pytest.approx(law.pmf(0), abs=1e-12)
        assert law.Q(1.0) == pytest.approx(1.0, abs=1e-12)
        if law.is_critical:
            # Q'(1) = 1: the stable form is positive and decays toward 1-
            a = law.one_minus_qprime(1.0 - 1e-6)
            b = law.one_minus_qprime(1.0 - 1e-10)
            assert 0.0 < b < a < 0.5

    def test_binary_Q_is_quadratic(self):
        d = O.igw(0.5)
        assert d.Q(0.6) == pytest.approx(0.68, abs=1e-15)

    def test_tails_match_brute_force(self):
        d = O.igw(0.75)
        arr = d.pmf_array(300000)
        k = np.arange(len(arr), dtype=np.float64)
        for j in (2, 3, 10, 50):
            tp = arr[j:].sum()
            # brute force misses its own tail; bound it by the exact formula
            assert d.tail_prob(j) == pytest.approx(tp, abs=2 * d.tail_prob(300001))
        assert d.tail_mean(2) == pytest.approx(1.0, abs=1e-12)

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            O.igw(0.4)
        with pytest.raises(ValueError):
            O.igw(1.0)


class TestZipf:
    def test_criticality_by_construction(self):
        for alpha in (1.2, 1.5, 2.0):
            d = O.zipf_critical(alpha)
            arr = d.pmf_array(2_000_000)
            mean = float(np.sum(np.arange(len(arr)) * arr))
            # truncated mean is below 1 by the exact tail remainder
            assert mean < 1.0
            assert mean + d.tail_mean(2_000_001) == pytest.approx(1.0, abs=1e-6)
            assert 0.0 < d.q0 < 1.0

    def test_tail_ratio_is_the_zipf_constant(self):
        d = O.zipf_critical(1.5)
        for k in (100, 1000):
            assert d.pmf(k) * k ** 2.5 == pytest.approx(d.c, rel=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            O.zipf_critical(1.0)
        with pytest.raises(ValueError):
            O.zipf_critical(2.5)


class TestGeometric:
    def test_critical_and_closed_forms(self):
        d = O.geometric_critical(0.5)
        arr = d.pmf_array(200)
        assert float(np.sum(np.arange(201) * arr)) == pytest.approx(1.0, abs=1e-12)
        for z in (0.0, 0.3, 0.9, 1.0):
            series = float(np.sum(arr * z ** np.arange(201)))
            assert d.Q(z) == pytest.approx(series, abs=1e-12)


class TestLogQDeriv:
    @pytest.mark.parametrize("spec", ["igw:0.5", "igw:0.66666666666666663", "zipf:1.5",
                                      "geom:0.5", "table:[0.6,0,0.3,0.1]"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_numerical_derivative_of_Q(self, spec, m):
        """exp(log Q^(m)(z)) against central differences of Q.  The third
        derivative vanishes at q = 1/2, where the log is -inf."""
        d = O.from_spec(spec)
        z, h = 0.5, 1e-3
        if m == 2:
            num = (d.Q(z + h) - 2 * d.Q(z) + d.Q(z - h)) / h ** 2
        else:
            num = (d.Q(z + 2 * h) - 2 * d.Q(z + h) + 2 * d.Q(z - h) - d.Q(z - 2 * h)) / (2 * h ** 3)
        assert math.exp(d.log_Q_deriv(z, m)) == pytest.approx(num, rel=1e-4, abs=1e-6)


class TestGDualRoute:
    def test_direct_equals_series(self, law):
        for x in (0.0, 0.25, 0.6, 0.9):
            direct = O.g_value(law, x, "direct")
            series = O.g_value(law, x, "series")
            assert direct == pytest.approx(series, rel=1e-9, abs=1e-12)

    def test_prop_identity_on_grid(self, law):
        """Q(x) - x = (1-x)^2 g(x) restored from the series coefficients."""
        if not law.is_critical:
            return
        for x in np.arange(0.0, 0.91, 0.1):
            lhs = law.Q(x) - x
            rhs = (1 - x) ** 2 * law.g_series(x)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_known_g_values(self):
        # critical binary: g is identically 1/2
        for x in (0.0, 0.5, 0.99):
            assert O.g_value(O.critical_binary(), x) == pytest.approx(0.5, abs=1e-12)
        # the power family: g(x) = q (1-x)^(1/q - 2)
        d = O.igw(0.8)
        for x in (0.2, 0.7):
            assert O.g_value(d, x) == pytest.approx(0.8 * (1 - x) ** (1.25 - 2), rel=1e-12)
        # subcritical table at 0: (Q(0)-0)/1 = q0
        assert O.g_value(O.table([0.6, 0, 0.4]), 0.0) == pytest.approx(0.6, abs=1e-15)


class TestClassify:
    @pytest.mark.parametrize("spec,expect", [
        ("igw:0.5", "critical"), ("igw:0.9", "critical"), ("zipf:1.5", "critical"),
        ("geom:0.5", "critical"), ("table:[0.6,0,0.4]", "subcritical"),
        ("table:[0.4,0,0.6]", "supercritical"),
    ])
    def test_classification(self, spec, expect):
        assert O.classify(O.from_spec(spec)) == expect


class TestRegularityExponents:
    def test_L_power_family_exact_probes(self):
        """Probes are constant in x for the invariant family: L = 2 - 1/q."""
        for q in (0.5, 2 / 3, 0.9):
            prof = O.estimate_L(O.igw(q))
            assert prof.converged
            assert prof.L == pytest.approx(2 - 1 / q, abs=1e-12)
            assert all(v == pytest.approx(2 - 1 / q, abs=1e-12)
                       for _, v in prof.L_probes)

    def test_L_zipf(self):
        assert O.estimate_L(O.zipf_critical(1.5)).L == pytest.approx(0.5, abs=0.05)
        # the alpha = 2 boundary has log-divergent variance: probe deeper
        prof = O.estimate_L(O.zipf_critical(2.0), js=range(8, 17, 2))
        assert prof.L == pytest.approx(0.0, abs=0.05)

    def test_L_light_tails_zero(self):
        assert O.estimate_L(O.geometric_critical()).L == pytest.approx(0.0, abs=0.01)
        assert O.estimate_L(O.critical_binary()).L == pytest.approx(0.0, abs=0.01)

    def test_L_needs_critical(self):
        with pytest.raises(ValueError):
            O.estimate_L(O.table([0.6, 0, 0.4]))

    def test_Lambda_values(self):
        val, probes = O.estimate_Lambda(O.zipf_critical(1.5))
        assert val == pytest.approx(1 / 3, abs=0.05)
        val, _ = O.estimate_Lambda(O.igw(2 / 3))
        assert val == pytest.approx(1 / 3, abs=0.05)

    def test_Lambda_not_applicable_marker(self):
        assert O.estimate_Lambda(O.critical_binary()) is None
        assert O.estimate_Lambda(O.geometric_critical()) is None

    def test_L_Lambda_consistency(self):
        """1/(2 - L) = 1 - Lambda when both exist."""
        for spec in ("igw:0.75", "zipf:1.5"):
            prof = O.regularity_profile(O.from_spec(spec))
            assert prof.Lambda is not None
            assert 1.0 / (2.0 - prof.L) == pytest.approx(1.0 - prof.Lambda, abs=0.02)


class TestSpecStrings:
    def test_roundtrip(self):
        for spec in ALL_SPECS:
            d = O.from_spec(spec)
            d2 = O.from_spec(d.spec_string())
            assert type(d) is type(d2) and d2.params == d.params

    def test_full_precision(self):
        d = O.igw(0.666667)
        assert O.from_spec(d.spec_string()).q == 0.666667
        assert O.from_spec("igw:0.66666666666666663").spec_string() != d.spec_string()

    def test_table_from_json_file(self, tmp_path):
        p = tmp_path / "law.json"
        p.write_text('{"q": [0.6, 0, 0.4]}')
        d = O.from_spec(f"table:{p}")
        assert d.pmf(2) == 0.4

    def test_table_validation(self):
        with pytest.raises(ValueError):
            O.table([0.5, 0.1, 0.4])   # q1 must be 0
        with pytest.raises(ValueError):
            O.table([0.5, 0, 0.4])     # mass defect
