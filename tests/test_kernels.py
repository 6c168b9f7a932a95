"""Numeric kernels: the MMD sums and the mixture fields against brute force,
and their determinism.
"""

import numpy as np
import pytest

from simdistill import kernels
from simdistill.rng import make_rng


def brute_force_sums(X, Y, bandwidths):
    """mmd_sums from full difference tensors, diagonals excluded."""
    dxx = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    dyy = ((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
    dxy = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
    rows = []
    for h in bandwidths:
        kxx = np.exp(-dxx / (2 * h * h))
        np.fill_diagonal(kxx, 0.0)
        kyy = np.exp(-dyy / (2 * h * h))
        np.fill_diagonal(kyy, 0.0)
        rows.append([kxx.sum(), kyy.sum(), np.exp(-dxy / (2 * h * h)).sum()])
    return np.array(rows)


class TestMmdSums:
    def test_deterministic(self):
        rng = make_rng(2)
        X = rng.standard_normal((64, 2))
        Y = rng.standard_normal((64, 2))
        bw = np.array([0.7, 1.3])
        assert np.array_equal(kernels.mmd_sums(X, Y, bw), kernels.mmd_sums(X, Y, bw))

    def test_tiny_case_by_hand(self):
        # X = {0, 1}, Y = {2}: sum_xx = 2·exp(-1/(2h²)), sum_yy = 0,
        # sum_xy = exp(-4/(2h²)) + exp(-1/(2h²))
        X = np.array([[0.0], [1.0]])
        Y = np.array([[2.0]])
        h = 1.0
        out = kernels.mmd_sums(X, Y, np.array([h]))
        sxx, syy, sxy = out[0]
        assert sxx == pytest.approx(2 * np.exp(-0.5), rel=1e-15)
        assert syy == 0.0
        assert sxy == pytest.approx(np.exp(-2.0) + np.exp(-0.5), rel=1e-15)

    def test_block_boundary_consistency(self):
        # sizes straddling the row blocks must not change results; nor may a
        # cloud far from the origin (‖a‖² + ‖b‖² − 2ab on raw coordinates
        # loses ~2e-11 relative at 10³) or exact repeats within X and across
        # X and Y, which sit at distance 0
        rng = make_rng(3)
        X = rng.standard_normal((2049, 2))
        Y = rng.standard_normal((2048, 2))
        cases = [
            (X, Y),
            (X + 1e3, Y + 1e3),
            (np.vstack([X[:1500], X[:300]]), np.vstack([Y[:1500], X[1000:1300]])),
        ]
        bw = np.array([0.25, 1.0])
        for A, B in cases:
            np.testing.assert_allclose(kernels.mmd_sums(A, B, bw), brute_force_sums(A, B, bw), rtol=1e-12, atol=0)


class TestGmmFields:
    def _inputs(self):
        # kernel convention: variances arrive with the noise folded in
        # (signal² + t²)
        rng = make_rng(4)
        x = rng.standard_normal((40, 2)) * 3
        means = np.array([[2.0, 0.0], [-2.0, 1.0], [0.0, -2.0]])
        diffused = np.array([0.25, 0.49, 1.0]) + 0.81
        log_w = np.log(np.array([0.2, 0.5, 0.3]))
        return x, means, diffused, log_w

    def test_matches_brute_force(self):
        x, means, diffused, log_w = self._inputs()
        logdens, resp, comp, score = kernels.gmm_fields(x, means, diffused, log_w)
        from scipy.stats import multivariate_normal

        dens_k = np.stack(
            [np.exp(log_w[k]) * multivariate_normal(means[k], diffused[k] * np.eye(2)).pdf(x) for k in range(3)],
            axis=1,
        )
        np.testing.assert_allclose(logdens, np.log(dens_k.sum(axis=1)), rtol=1e-10)
        np.testing.assert_allclose(resp, dens_k / dens_k.sum(axis=1, keepdims=True), rtol=1e-10)
        np.testing.assert_allclose(comp, (means[None] - x[:, None]) / diffused[None, :, None], rtol=1e-14)
        np.testing.assert_allclose(score, (resp[:, :, None] * comp).sum(axis=1), rtol=1e-14)
        # FD score on the first few points
        h = 1e-6
        for i in range(5):
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                lp = kernels.gmm_fields((x[i] + e)[None], means, diffused, log_w)[0][0]
                lm = kernels.gmm_fields((x[i] - e)[None], means, diffused, log_w)[0][0]
                assert score[i, j] == pytest.approx((lp - lm) / (2 * h), rel=1e-5, abs=1e-7)
        # one variance row per point gives each row its own scalar-variance answer
        per_row = diffused[None, :] * np.linspace(0.5, 4.0, len(x))[:, None]
        batched = kernels.gmm_fields(x, means, per_row, log_w)
        for i in (0, 17, 39):
            single = kernels.gmm_fields(x[i : i + 1], means, per_row[i], log_w)
            for a, b in zip(batched, single):
                np.testing.assert_allclose(a[i : i + 1], b, rtol=1e-14)


class TestBackendSelection:
    def test_backend_name_reports(self):
        assert kernels.backend_name() == "numpy"
