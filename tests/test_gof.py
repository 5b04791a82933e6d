"""Statistical utilities: null calibration, power, tail merging, ranges."""

import os
import subprocess
import sys

import numpy as np
import pytest

import igwlab
from igwlab import gof
from igwlab.offspring import IGW
from igwlab.rng import CounterStream


class TestKS:
    def test_null_calibration(self):
        """Samples drawn from the tested CDF stay under the 1% critical value
        in the vast majority of seeds."""
        n = 20000
        ok = 0
        for seed in range(20):
            u = np.sort(CounterStream(seed).uniforms(n))
            D = gof.ks_statistic(u, lambda x: x)
            ok += D <= gof.ks_threshold(n, 0.01)
        assert ok >= 19

    def test_detects_wrong_cdf(self):
        u = np.sort(CounterStream(1).uniforms(20000))
        D = gof.ks_statistic(u, lambda x: np.asarray(x) ** 2)
        assert D > 10 * gof.ks_threshold(20000, 0.01)

    def test_constant_sample_distance(self):
        xs = np.full(200, 0.3)
        D = gof.ks_statistic(xs, lambda x: np.asarray(x, dtype=float))
        assert D == pytest.approx(0.7, abs=1e-12)

    def test_restricted_range(self):
        u = np.sort(CounterStream(2).uniforms(5000))
        full = gof.ks_statistic(u, lambda x: x)
        part = gof.ks_statistic(u, lambda x: x, (0.0, 0.5))
        assert part <= full + 1e-15

    def test_errors(self):
        with pytest.raises(ValueError):
            gof.ks_statistic(np.arange(10) / 10.0, lambda x: x)  # too few
        u = np.sort(CounterStream(3).uniforms(200))
        with pytest.raises(ValueError):
            gof.ks_statistic(u, lambda x: x, (0.7, 0.1))  # empty range
        with pytest.raises(ValueError):
            gof.ks_statistic(u[::-1], lambda x: x)  # unsorted


class TestChiSquare:
    def test_exact_expected_gives_zero(self):
        probs = np.array([0.5, 0.0, 0.5])
        obs = np.array([500, 0, 500])
        stat, dof = gof.chi_square_pmf(obs, probs)
        assert stat == 0.0 and dof == 1

    def test_null_calibration_binary_draws(self):
        """Draws from the law vs. its own pmf: non-rejection in >= 19/20."""
        d = IGW(0.5)
        probs = d.pmf_array(16)
        ok = 0
        for seed in range(20):
            u = CounterStream(seed, domain=2).uniforms(20000)
            ks = np.where(u < 0.5, 0, 2)
            obs = np.bincount(ks, minlength=17)
            stat, dof = gof.chi_square_pmf(obs, probs)
            ok += stat <= gof.chi_square_threshold(dof, 0.01)
        assert ok >= 19

    def test_power_against_wrong_law(self):
        """Binary draws against the q = 2/3 pmf must reject."""
        u = CounterStream(5, domain=2).uniforms(100000)
        ks = np.where(u < 0.5, 0, 2)
        obs = np.bincount(ks, minlength=65)
        stat, dof = gof.chi_square_pmf(obs, IGW(2 / 3).pmf_array(64))
        assert stat > gof.chi_square_threshold(dof, 0.01)

    def test_tail_merging_conserves_mass(self):
        probs = IGW(0.9).pmf_array(64)
        bounds, merged = gof.merge_tail_buckets(probs, n=1000)
        assert merged.sum() == pytest.approx(1.0, abs=1e-9)
        assert all(p * 1000 >= 5.0 for p in merged[:-1])
        assert bounds[-1] is None

    def test_insufficient_mass_raises(self):
        with pytest.raises(ValueError):
            gof.merge_tail_buckets(np.array([1.0]), n=3)


class TestExponentialFit:
    def test_recovers_rate(self):
        x = CounterStream(9).exponentials(10000, rate=2.0)
        rate, (lo, hi) = gof.fit_exponential_rate(x)
        assert lo <= 2.0 <= hi
        assert rate == pytest.approx(2.0, rel=0.05)

    def test_interval_is_exact_gamma(self):
        """Coverage sanity over repeated draws."""
        cover = 0
        for seed in range(40):
            x = CounterStream(seed, domain=5).exponentials(400, rate=1.3)
            _, (lo, hi) = gof.fit_exponential_rate(x)
            cover += lo <= 1.3 <= hi
        assert cover >= 35

    def test_degenerate_flagged(self):
        with pytest.raises(ValueError):
            gof.fit_exponential_rate(np.full(200, 1.0))
        with pytest.raises(ValueError):
            gof.fit_exponential_rate(np.zeros(200))


class TestQuantiles:
    """The verdict quantiles come from scipy.special, not scipy.stats."""

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about half of the import time and memory
        src = os.path.dirname(os.path.dirname(igwlab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = "import sys, igwlab, igwlab.cli; assert 'scipy.stats' not in sys.modules"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_chi_square_threshold_bit_equal_to_scipy_stats(self):
        from scipy import stats

        dofs = np.arange(1, 401)
        alphas = np.geomspace(1e-6, 0.9, 25)
        want = stats.chi2.isf(alphas[:, None], dofs[None, :])
        got = [[gof.chi_square_threshold(int(d), float(a)) for d in dofs] for a in alphas]
        assert np.array_equal(np.array(got), want)

    def test_exponential_rate_interval_bit_equal_to_scipy_stats(self):
        from scipy import stats

        for n in np.unique(np.geomspace(100, 2e6, 16).astype(np.int64)):
            x = np.ones(n)
            x[0] = 2.0
            s = float(n + 1)
            for conf in (0.5, 0.95, 0.99, 1 - 2e-6):
                a = (1.0 - conf) / 2.0
                _, (lo, hi) = gof.fit_exponential_rate(x, conf)
                assert lo == float(stats.gamma.ppf(a, n) / s)
                assert hi == float(stats.gamma.isf(a, n) / s)


class TestGofReport:
    def test_reports(self):
        rep = gof.GofReport("t", 0.1, 0.2, True, 100, details={"a": np.float64(1)})
        out = rep.to_json()
        assert '"passed": true' in out
        assert "PASS" in str(rep)
