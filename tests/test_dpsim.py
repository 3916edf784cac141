"""Tests for the Laplace sampler and the noisy-ratio inference experiment."""

import math

import numpy as np
import pytest
from scipy import stats

from fprivacy.core import ConfigError
from fprivacy.dpsim import (InferenceEstimate, LaplaceMech, convergence_sweep,
                            inference_experiment, laplace_cdf, laplace_pdf,
                            noisy_count, predicted_moments)


class TestLaplaceMech:

    def test_scale_is_inverse_epsilon(self):
        assert LaplaceMech(epsilon=0.1).scale == pytest.approx(10.0)
        assert LaplaceMech(epsilon=4.0).scale == pytest.approx(0.25)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ConfigError):
            LaplaceMech(epsilon=0.0)
        with pytest.raises(ConfigError):
            LaplaceMech(epsilon=-1.0)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ConfigError, match="finite and positive"):
            LaplaceMech(epsilon=epsilon)

    def test_sample_mean_within_clt_band(self):
        s = LaplaceMech(epsilon=1.0, seed=42).sample(10 ** 6)
        assert abs(s.mean()) <= 3.0 * math.sqrt(2 / 10 ** 6)

    def test_sample_variance_matches_two_b_squared(self):
        mech = LaplaceMech(epsilon=1.0, seed=42)
        var = mech.sample(10 ** 6).var(ddof=1)
        assert abs(var - 2.0) / 2.0 < 0.05
        half = LaplaceMech(epsilon=2.0, seed=42)  # scale 0.5, so 2b^2 = 0.5
        var_half = half.sample(10 ** 6).var(ddof=1)
        assert abs(var_half - 0.5) / 0.5 < 0.05

    def test_kolmogorov_smirnov_fit(self):
        s = LaplaceMech(epsilon=1.0, seed=42).sample(10 ** 6)
        ks = stats.kstest(s, lambda v: laplace_cdf(v, 0.0, 1.0))
        assert ks.statistic < 0.002

    def test_sampling_is_deterministic(self):
        a = LaplaceMech(epsilon=0.5, seed=9).sample(100)
        b = LaplaceMech(epsilon=0.5, seed=9).sample(100)
        c = LaplaceMech(epsilon=0.5, seed=10).sample(100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_empty_draw(self):
        with pytest.raises(ConfigError):
            LaplaceMech(epsilon=1.0).sample(0)


class TestDensity:

    def test_pdf_integrates_to_one(self):
        grid = np.linspace(-40, 40, 200_001)
        mass = np.trapezoid(laplace_pdf(grid, 0.0, 2.0), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_cdf_midpoint_and_symmetry(self):
        assert laplace_cdf(3.0, 3.0, 1.5) == pytest.approx(0.5)
        assert laplace_cdf(-1.0, 0.0, 1.0) == pytest.approx(
            1.0 - laplace_cdf(1.0, 0.0, 1.0))

    def test_neighboring_counts_density_ratio_bounded(self):
        # epsilon-DP at the distribution level: outputs for counts c and
        # c+1 have density ratio at most e^epsilon everywhere
        for epsilon in (0.1, 1.0, 3.0):
            scale = 1.0 / epsilon
            c = 17.0
            grid = np.linspace(c - 50 * scale, c + 1 + 50 * scale, 1000)
            p = laplace_pdf(grid, c, scale)
            q = laplace_pdf(grid, c + 1.0, scale)
            ratio = np.maximum(p / q, q / p)
            assert ratio.max() <= math.exp(epsilon) * (1 + 1e-12)
            # the bound is tight outside the interval between the counts
            assert ratio.max() == pytest.approx(math.exp(epsilon))


class TestNoisyCount:

    def test_huge_epsilon_returns_true_count(self):
        mech = LaplaceMech(epsilon=1e9, seed=3)
        assert noisy_count(42, mech) == pytest.approx(42.0, abs=1e-6)

    def test_deterministic_given_seed(self):
        assert noisy_count(5, LaplaceMech(1.0, seed=3)) == noisy_count(
            5, LaplaceMech(1.0, seed=3))

    def test_rejects_negative_count(self):
        with pytest.raises(ConfigError):
            noisy_count(-1, LaplaceMech(1.0))


class TestInferenceExperiment:

    MECH = LaplaceMech(epsilon=0.1, seed=7)

    def test_low_count_regime_golden(self):
        # 2b^2/x^2 = 0.02 at x=100, so the ratio estimate runs 2% hot
        est = inference_experiment(100, 50, self.MECH, 10 ** 6)
        assert est.predicted_mean == pytest.approx(0.51)
        assert abs(est.sample_mean - 0.51) <= 0.01
        assert est.predicted_var == pytest.approx(0.025)
        assert 0.0225 <= est.sample_var <= 0.0275

    def test_high_count_regime_golden(self):
        est = inference_experiment(1000, 500, self.MECH, 10 ** 6)
        assert est.predicted_mean == pytest.approx(0.50010)
        assert abs(est.sample_mean - 0.50010) <= 0.002
        assert abs(est.sample_var - 0.00025) / 0.00025 < 0.10

    def test_zero_numerator(self):
        est = inference_experiment(100, 0, self.MECH, 200_000)
        assert est.predicted_mean == 0.0
        assert est.predicted_var == pytest.approx(0.02)
        assert abs(est.sample_mean) < 0.005

    def test_rejection_rate_matches_tail_mass(self):
        # P(X <= x/2) = exp(-x/(2b))/2, about 0.34% at x=100, b=10
        est = inference_experiment(100, 50, self.MECH, 10 ** 5)
        expected = 0.5 * math.exp(-100 / 20) * 10 ** 5
        assert 0.6 * expected <= est.rejected <= 1.5 * expected
        assert est.sample_count + est.rejected == 10 ** 5

    def test_taylor_agreement_band(self):
        n = 200_000
        for x, ratio in ((100, 0.0), (100, 0.3), (150, 0.7), (300, 1.0),
                         (1000, 0.5)):
            est = inference_experiment(x, ratio * x, self.MECH, n)
            tol = max(0.005, 3.0 * math.sqrt(est.predicted_var / n))
            assert abs(est.sample_mean - est.predicted_mean) <= tol

    def test_deterministic(self):
        a = inference_experiment(100, 50, self.MECH, 300_000)
        b = inference_experiment(100, 50, self.MECH, 300_000)
        assert a == b

    def test_stability_gate(self):
        with pytest.raises(ConfigError):
            inference_experiment(50, 25, self.MECH, 100)

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            inference_experiment(0.5, 0.2, LaplaceMech(100.0), 10)
        with pytest.raises(ConfigError):
            inference_experiment(100, -1, self.MECH, 10)
        with pytest.raises(ConfigError):
            inference_experiment(100, 101, self.MECH, 10)
        with pytest.raises(ConfigError):
            inference_experiment(100, 50, self.MECH, 0)

    def test_estimate_invariants(self):
        with pytest.raises(ConfigError):
            InferenceEstimate(x=0.5, y=0.1, sample_mean=0, sample_var=0,
                              predicted_mean=0, predicted_var=0,
                              sample_count=1)
        with pytest.raises(ConfigError):
            InferenceEstimate(x=10, y=11, sample_mean=0, sample_var=0,
                              predicted_mean=0, predicted_var=0,
                              sample_count=1)

    def test_to_dict_round_trip(self):
        est = inference_experiment(100, 50, self.MECH, 1000)
        payload = est.to_dict()
        assert payload["x"] == 100
        assert payload["sample_count"] + payload["rejected"] == 1000


class TestConvergenceSweep:

    def test_moments_shrink_as_x_grows(self):
        for seed in (7, 8, 9):
            sweep = convergence_sweep(0.5, LaplaceMech(0.1, seed=seed),
                                      [100, 200, 400, 1000],
                                      n_samples=200_000)
            deviations = [abs(e.sample_mean - 0.5) for e in sweep]
            variances = [e.sample_var for e in sweep]
            assert all(a > b for a, b in zip(deviations, deviations[1:]))
            assert all(a > b for a, b in zip(variances, variances[1:]))

    def test_doubling_x_quarters_the_excess(self):
        mean1, var1 = predicted_moments(100, 50, 10.0)
        mean2, var2 = predicted_moments(200, 100, 10.0)
        excess1 = mean1 / 0.5 - 1.0
        excess2 = mean2 / 0.5 - 1.0
        assert excess1 == pytest.approx(4 * excess2)
        assert var1 == pytest.approx(4 * var2)

    def test_predicted_variance_goldens(self):
        sweep = convergence_sweep(0.5, LaplaceMech(0.1, seed=1), [100, 1000],
                                  n_samples=10)
        assert sweep[0].predicted_var == pytest.approx(0.025)
        assert sweep[1].predicted_var == pytest.approx(0.00025)

    def test_empirical_variance_tracks_prediction(self):
        sweep = convergence_sweep(0.5, LaplaceMech(0.1, seed=7),
                                  [100, 250, 1000], n_samples=10 ** 6)
        for est in sweep:
            assert abs(est.sample_var - est.predicted_var) \
                / est.predicted_var < 0.10

    def test_argument_validation(self):
        mech = LaplaceMech(1.0)
        with pytest.raises(ConfigError):
            convergence_sweep(1.5, mech, [10, 20])
        with pytest.raises(ConfigError):
            convergence_sweep(0.5, mech, [])
        with pytest.raises(ConfigError):
            convergence_sweep(0.5, mech, [20, 10])
