"""Sample-quality metrics: MMD, moment-matched W2, mode coverage."""

import numpy as np
import pytest

from simdistill.metrics import (
    BANDWIDTH_FACTORS,
    BANDWIDTH_FLOOR,
    MetricRow,
    gaussian_w2,
    gaussian_w2_moments,
    _median_in_place,
    median_heuristic_bandwidths,
    mmd_rbf,
    mode_coverage,
)
from simdistill.oracles import GmmSpec, gmm_sample, ring_gmm
from simdistill.rng import make_rng


class TestBandwidths:
    def test_ladder_structure(self):
        rng = make_rng(0)
        X = rng.standard_normal((200, 2))
        Y = rng.standard_normal((200, 2))
        bw = median_heuristic_bandwidths(X, Y)
        assert bw.shape == (len(BANDWIDTH_FACTORS),)
        np.testing.assert_allclose(bw / bw[2], BANDWIDTH_FACTORS, rtol=1e-12)
        assert np.all(bw > 0)

    def test_degenerate_data_floors(self):
        X = np.zeros((50, 2))
        bw = median_heuristic_bandwidths(X, X)
        assert np.all(bw >= BANDWIDTH_FLOOR * min(BANDWIDTH_FACTORS))

    @pytest.mark.parametrize("n_points", [6, 7, 8, 64, 65])  # odd and even distance counts
    @pytest.mark.parametrize("kind", ["plain", "ties", "nan-row"])
    def test_in_place_median_matches_numpy(self, n_points, kind):
        from scipy.spatial.distance import pdist

        X = make_rng(n_points).standard_normal((n_points, 2))
        if kind == "ties":
            X = np.round(X)  # integer grid: many equal distances
        elif kind == "nan-row":
            X[n_points // 2] = np.nan
        d = pdist(X)
        expected = np.median(d)
        got = _median_in_place(d)
        if kind == "nan-row":
            assert np.isnan(expected) and np.isnan(got)
        else:
            assert got == expected

    def test_subsampling_is_deterministic(self):
        rng = make_rng(1)
        X = rng.standard_normal((9000, 2))
        Y = rng.standard_normal((9000, 2))
        assert np.array_equal(
            median_heuristic_bandwidths(X, Y), median_heuristic_bandwidths(X, Y)
        )


class TestMmd:
    def test_hand_value_single_bandwidth(self):
        # m=n=2 unbiased: sxx/(m(m-1)) + syy/(n(n-1)) - 2 sxy/(mn)
        X = np.array([[0.0], [1.0]])
        Y = np.array([[2.0], [3.0]])
        k = lambda a, b: np.exp(-((a - b) ** 2) / 2.0)
        sxx = 2 * k(0, 1)
        syy = 2 * k(2, 3)
        sxy = k(0, 2) + k(0, 3) + k(1, 2) + k(1, 3)
        want = sxx / 2 + syy / 2 - 2 * sxy / 4
        assert mmd_rbf(X, Y, bandwidths=np.array([1.0])) == pytest.approx(want, rel=1e-14)

    def test_sums_over_bandwidth_ladder(self):
        rng = make_rng(2)
        X = rng.standard_normal((64, 2))
        Y = rng.standard_normal((64, 2)) + 1.0
        bw = np.array([0.5, 1.0, 2.0])
        total = mmd_rbf(X, Y, bandwidths=bw)
        parts = sum(mmd_rbf(X, Y, bandwidths=np.array([h])) for h in bw)
        assert total == pytest.approx(parts, rel=1e-12)

    def test_symmetry_is_exact(self):
        rng = make_rng(3)
        X = rng.standard_normal((130, 3))
        Y = rng.standard_normal((90, 3)) + 0.2
        assert mmd_rbf(X, Y) == mmd_rbf(Y, X)

    def test_biased_self_mmd_is_zero(self):
        rng = make_rng(4)
        X = rng.standard_normal((100, 2))
        assert abs(mmd_rbf(X, X.copy(), unbiased=False)) <= 1e-12

    def test_unbiased_separates_distributions(self):
        rng = make_rng(5)
        X = rng.standard_normal((500, 2))
        Y = rng.standard_normal((500, 2))
        Z = rng.standard_normal((500, 2)) + 3.0
        near = mmd_rbf(X, Y)
        far = mmd_rbf(X, Z)
        assert far > 10 * abs(near)
        assert far > 0.1

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            mmd_rbf(np.zeros((4, 2)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            mmd_rbf(np.zeros((1, 2)), np.zeros((4, 2)))  # unbiased needs ≥ 2 per side


class TestGaussianW2:
    def test_axis_stretch_hand_value(self):
        # N(0, diag(4,1)) vs N(0, I): W2² = (2−1)² = 1
        assert gaussian_w2_moments(
            np.zeros(2), np.diag([4.0, 1.0]), np.zeros(2), np.eye(2)
        ) == pytest.approx(1.0, rel=1e-12)

    def test_pure_translation(self):
        assert gaussian_w2_moments(
            np.array([3.0, 0.0]), np.eye(2), np.zeros(2), np.eye(2)
        ) == pytest.approx(3.0, rel=1e-12)

    def test_identical_moments_zero(self):
        cov = np.array([[2.0, 0.7], [0.7, 1.0]])
        assert gaussian_w2_moments(np.ones(2), cov, np.ones(2), cov) <= 1e-7

    def test_symmetry(self):
        a = gaussian_w2_moments(np.zeros(2), np.diag([4.0, 1.0]), np.ones(2), np.eye(2))
        b = gaussian_w2_moments(np.ones(2), np.eye(2), np.zeros(2), np.diag([4.0, 1.0]))
        assert a == pytest.approx(b, rel=1e-12)

    def test_triangle_inequality_on_samples(self):
        rng = make_rng(12)
        X = rng.standard_normal((2000, 2))
        Y = rng.standard_normal((2000, 2)) * 2.0
        Z = rng.standard_normal((2000, 2)) + np.array([4.0, 0.0])
        assert gaussian_w2(X, Z) <= gaussian_w2(X, Y) + gaussian_w2(Y, Z) + 1e-9

    def test_sample_estimate_converges(self):
        rng = make_rng(13)
        X = rng.standard_normal((100_000, 2)) * np.array([2.0, 1.0])
        Y = rng.standard_normal((100_000, 2))
        assert gaussian_w2(X, Y) == pytest.approx(1.0, abs=0.02)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            gaussian_w2(np.zeros((2, 2)), np.zeros((10, 2)))


class TestModeCoverage:
    def test_exact_component_draws_cover_everything(self):
        gmm = ring_gmm()
        X = gmm_sample(gmm, make_rng(14), 10_000)
        frac, counts = mode_coverage(X, gmm)
        assert frac == 1.0
        assert counts.shape == (8,)
        assert counts.min() >= 0.02 * 10_000

    def test_single_mode_collapse(self):
        gmm = ring_gmm()
        rng = make_rng(15)
        X = gmm.means[0] + 0.3 * rng.standard_normal((5000, 2))
        frac, counts = mode_coverage(X, gmm)
        assert frac == pytest.approx(1 / 8)
        assert counts.argmax() == 0

    def test_threshold_excludes_trace_mass(self):
        gmm = GmmSpec(np.array([0.5, 0.5]), np.array([[5.0, 0.0], [-5.0, 0.0]]), 0.3)
        rng = make_rng(16)
        bulk = gmm.means[0] + 0.3 * rng.standard_normal((990, 2))
        trace = gmm.means[1] + 0.3 * rng.standard_normal((10, 2))  # 1% < 2% cutoff
        frac, counts = mode_coverage(np.vstack([bulk, trace]), gmm)
        assert frac == 0.5
        assert counts[1] >= 1

    def test_radius_multiplier_widens_catch(self):
        gmm = GmmSpec(np.array([1.0]), np.zeros((1, 2)), 0.1)
        X = np.full((100, 2), 0.25)  # 2.5 scales from the mean... just outside 2σ
        frac_tight, _ = mode_coverage(X, gmm, radius_multiplier=2.0)
        frac_wide, _ = mode_coverage(X, gmm, radius_multiplier=4.0)
        assert (frac_tight, frac_wide) == (0.0, 1.0)

    def test_bad_multiplier_rejected(self):
        with pytest.raises(ValueError):
            mode_coverage(np.zeros((4, 2)), ring_gmm(), radius_multiplier=0.0)


class TestMetricRow:
    def test_csv_round_trip(self):
        row = MetricRow(10, 1.5, -0.25, 1e-3, 0.5, 0.875, 0.0)
        line = row.to_csv()
        assert MetricRow.CSV_HEADER == "step,phase1_loss,phase2_loss,mmd,w2_gauss,mode_coverage,seconds"
        fields = line.split(",")
        assert int(fields[0]) == 10
        assert float(fields[3]) == 1e-3
        assert float(fields[5]) == 0.875

    def test_floats_survive_repr_exactly(self):
        v = 0.1 + 0.2  # not representable tidily; repr must round-trip
        row = MetricRow(1, v, v, v, v, v, v)
        assert all(float(f) == v for f in row.to_csv().split(",")[1:])
