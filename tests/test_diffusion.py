"""Forward-process, schedule, time-sampling, and weighting tests.

Expected values come from hand evaluation of the closed forms; the mid-grid
sigma constant was frozen from a 50-digit interpolation of the schedule
formula.
"""

import numpy as np
import pytest

from simdistill.diffusion import (
    SID_WEIGHT_CAP,
    DiffusionSpec,
    TimeDistribution,
    WeightingFn,
    cond_score,
    denoiser_from_score,
    karras_grid,
    karras_sigma,
    perturb,
    sample_times,
    score_from_denoiser,
    weight_batch,
)
from simdistill.rng import make_rng

SPEC = DiffusionSpec()

# frozen from a 50-digit evaluation of the rho-interpolated schedule
SIGMA_500 = 2.5039743586555597
SIGMA_800 = 0.0841029080835761


class TestSpec:
    def test_defaults(self):
        assert SPEC.sigma_min == 0.002
        assert SPEC.sigma_max == 80.0
        assert SPEC.rho == 7.0
        assert SPEC.K == 1000
        assert SPEC.sigma_data == 0.5
        assert SPEC.T == 80.0  # horizon defaults to sigma_max
        assert SPEC.drift == 0.0

    def test_nonzero_drift_rejected(self):
        with pytest.raises(ValueError, match="drift"):
            DiffusionSpec(drift=0.1)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            DiffusionSpec(sigma_min=-1.0)
        with pytest.raises(ValueError):
            DiffusionSpec(sigma_min=2.0, sigma_max=1.0)
        with pytest.raises(ValueError):
            DiffusionSpec(K=0)


class TestForwardProcess:
    def test_perturb_zero_mean_unit_noise(self):
        x0 = np.zeros((1, 2))
        eps = np.ones((1, 2))
        assert np.array_equal(perturb(x0, 2.0, eps), 2.0 * np.ones((1, 2)))

    def test_perturb_zero_time_is_identity(self):
        x0 = np.array([[1.0, -3.0, 2.5]])
        out = perturb(x0, 0.0, np.ones_like(x0))
        assert np.array_equal(out, x0)

    def test_perturb_per_row_times(self):
        x0 = np.zeros((3, 2))
        eps = np.ones((3, 2))
        t = np.array([1.0, 2.0, 3.0])
        out = perturb(x0, t, eps)
        assert np.array_equal(out, t[:, None] * eps)

    def test_cond_score_hand_value(self):
        # x0=(0,0), x_t=(1,1), t=1 -> (-1,-1)
        out = cond_score(np.zeros((1, 2)), np.ones((1, 2)), 1.0)
        assert np.array_equal(out, -np.ones((1, 2)))

    def test_cond_score_scales_inverse_t_squared(self):
        x0 = np.zeros((1, 2))
        x_t = np.ones((1, 2))
        assert np.allclose(cond_score(x0, x_t, 2.0), -0.25 * np.ones((1, 2)), rtol=1e-15)

    def test_perturb_cond_score_roundtrip(self):
        # cond_score(x0, perturb(x0,t,eps), t) == -eps/t up to cancellation noise
        rng = make_rng(0)
        x0 = rng.standard_normal((64, 3))
        eps = rng.standard_normal((64, 3))
        for t in (0.01, 0.5, 2.0, 40.0):
            got = cond_score(x0, perturb(x0, t, eps), t)
            np.testing.assert_allclose(got, -eps / t, rtol=1e-9, atol=1e-9)

    def test_score_denoiser_conversion_hand_value(self):
        # d=(1,1), x_t=(2,2), t=1 -> score (-1,-1)
        s = score_from_denoiser(np.ones((1, 2)), 2 * np.ones((1, 2)), 1.0)
        assert np.array_equal(s, -np.ones((1, 2)))

    def test_score_denoiser_roundtrip(self):
        rng = make_rng(1)
        x_t = rng.standard_normal((32, 4))
        d = rng.standard_normal((32, 4))
        t = np.exp(rng.standard_normal(32))
        s = score_from_denoiser(d, x_t, t)
        np.testing.assert_allclose(denoiser_from_score(s, x_t, t), d, rtol=1e-12, atol=1e-12)

    def test_nonpositive_time_rejected_for_scores(self):
        x = np.ones((1, 2))
        with pytest.raises(ValueError, match="positive"):
            cond_score(x, x, 0.0)
        with pytest.raises(ValueError, match="positive"):
            score_from_denoiser(x, x, -1.0)


class TestKarrasSchedule:
    def test_endpoints(self):
        assert abs(karras_sigma(0, SPEC) - 80.0) <= 1e-12
        assert abs(karras_sigma(SPEC.K - 1, SPEC) - 0.002) <= 1e-12

    def test_frozen_midpoints(self):
        assert karras_sigma(500, SPEC) == pytest.approx(SIGMA_500, rel=1e-14)
        assert karras_sigma(800, SPEC) == pytest.approx(SIGMA_800, rel=1e-14)

    def test_strictly_decreasing(self):
        grid = karras_grid(SPEC)
        assert grid.shape == (SPEC.K,)
        assert np.all(np.diff(grid) < 0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            karras_sigma(-1, SPEC)
        with pytest.raises(ValueError, match="index"):
            karras_sigma(SPEC.K, SPEC)

    def test_grid_matches_pointwise(self):
        grid = karras_grid(SPEC)
        for k in (0, 1, 499, 999):
            assert grid[k] == karras_sigma(k, SPEC)


class TestTimeDistributions:
    def test_log_normal_moments(self):
        dist = TimeDistribution.log_normal(-1.2, 1.2)
        n = 100_000
        t = sample_times(dist, SPEC, make_rng(7), n)
        assert np.all(t > 0)
        log_t = np.log(t)
        se_mean = 1.2 / np.sqrt(n)
        assert abs(log_t.mean() - (-1.2)) <= 3 * se_mean
        # sample std of a normal: se ≈ sigma/sqrt(2n)
        assert abs(log_t.std(ddof=1) - 1.2) <= 3 * 1.2 / np.sqrt(2 * n)

    def test_karr_uniform_draws_live_on_the_grid(self):
        dist = TimeDistribution.karr_uniform(k_max=800)
        grid = karras_grid(SPEC)
        allowed = set(grid[: 800 + 1].tolist())  # indices 0..800 inclusive
        t = sample_times(dist, SPEC, make_rng(3), 20_000)
        assert set(t.tolist()) <= allowed
        # both endpoints of the truncated grid get hit
        assert grid[0] in t  # sigma_max
        assert grid[800] in t
        assert t.min() >= SIGMA_800 - 1e-15
        assert t.max() <= 80.0

    def test_karr_uniform_index_is_uniform(self):
        dist = TimeDistribution.karr_uniform(k_max=800)
        grid = karras_grid(SPEC)
        t = sample_times(dist, SPEC, make_rng(11), 50_000)
        idx = np.searchsorted(-grid, -t)  # grid is decreasing
        mean_idx = idx.mean()
        se = np.sqrt((801**2 - 1) / 12 / 50_000)
        assert abs(mean_idx - 400.0) <= 3 * se

    def test_karr_uniform_k_max_must_fit_grid(self):
        dist = TimeDistribution.karr_uniform(k_max=SPEC.K)
        with pytest.raises(ValueError, match="k_max"):
            sample_times(dist, SPEC, make_rng(0), 4)

    def test_fixed_grid_membership(self):
        values = (0.1, 1.0, 10.0)
        dist = TimeDistribution.fixed_grid(values)
        t = sample_times(dist, SPEC, make_rng(5), 1000)
        assert set(np.unique(t)) == set(values)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TimeDistribution.log_normal(0.0, -1.0)
        with pytest.raises(ValueError):
            TimeDistribution.karr_uniform(k_max=-1)
        with pytest.raises(ValueError):
            TimeDistribution.fixed_grid(())
        with pytest.raises(ValueError):
            TimeDistribution.fixed_grid((1.0, -2.0))


class TestWeightings:
    def test_one(self):
        assert np.array_equal(weight_batch(WeightingFn.one(), 2.0), [1.0])

    def test_edm_hand_value(self):
        # (t² + σ_d²)/(t σ_d)² with σ_d=0.5, t=2 -> (4+0.25)/1 = 4.25
        assert weight_batch(WeightingFn.edm(sigma_data=0.5), 2.0)[0] == pytest.approx(4.25, rel=1e-15)

    def test_sid_hand_value(self):
        # C·t⁴/‖x0−denoised‖₁ with C=2, t=1, l1=4 -> 0.5
        x0 = np.array([[1.0, 2.0]])
        den = np.array([[3.0, 4.0]])  # l1 distance 4
        assert weight_batch(WeightingFn.sid(C=2.0), 1.0, x0=x0, denoised=den)[0] == pytest.approx(0.5, rel=1e-15)

    def test_sid_default_C_is_data_dim(self):
        x0 = np.zeros((1, 3))
        den = np.ones((1, 3))  # l1 = 3
        # C=3 default, t=1 -> 3/3 = 1
        assert weight_batch(WeightingFn.sid(), 1.0, x0=x0, denoised=den)[0] == pytest.approx(1.0, rel=1e-15)

    def test_sid_zero_denominator_caps_and_warns(self):
        x0 = np.ones((1, 2))
        with pytest.warns(RuntimeWarning, match="clamped"):
            w = weight_batch(WeightingFn.sid(C=2.0), 1.0, x0=x0, denoised=x0.copy())
        assert np.array_equal(w, [SID_WEIGHT_CAP])

    def test_sid_requires_both_fields(self):
        with pytest.raises(ValueError):
            weight_batch(WeightingFn.sid(), 1.0, x0=np.ones((1, 2)), denoised=None)

    def test_positive_for_positive_t(self):
        rng = make_rng(2)
        t = np.exp(3 * rng.standard_normal(200))
        for fn in (WeightingFn.one(), WeightingFn.edm()):
            w = weight_batch(fn, t)
            assert np.all(w > 0)

    def test_weight_batch_rowwise_sid(self):
        t = np.array([1.0, 2.0])
        x0 = np.array([[0.0, 0.0], [0.0, 0.0]])
        den = np.array([[1.0, 1.0], [1.0, 3.0]])  # l1 rows: 2, 4
        w = weight_batch(WeightingFn.sid(C=2.0), t, x0=x0, denoised=den)
        np.testing.assert_allclose(w, [2 * 1 / 2, 2 * 16 / 4], rtol=1e-15)

    def test_edm_matches_batch_of_scalars(self):
        fn = WeightingFn.edm()
        t = np.array([0.1, 1.0, 7.0])
        w = weight_batch(fn, t)
        np.testing.assert_allclose(w, [weight_batch(fn, ti)[0] for ti in t], rtol=1e-15)
