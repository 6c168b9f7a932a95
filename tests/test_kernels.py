"""Numeric kernels: MMD numpy/numba agreement, env-flag fallback,
determinism, and the mixture fields against brute force.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from simdistill import kernels
from simdistill.rng import make_rng


def rel_diff(a, b):
    denom = max(np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / denom


class TestMmdSums:
    def test_backends_agree(self):
        if not kernels.HAS_NUMBA:
            pytest.skip("numba not importable in this environment")
        rng = make_rng(0)
        X = rng.standard_normal((300, 4))
        Y = rng.standard_normal((211, 4)) + 0.3
        bw = np.array([0.5, 1.0, 2.0])
        a = kernels.mmd_sums_numpy(X, Y, bw)
        b = kernels.mmd_sums_numba(X, Y, bw)
        assert rel_diff(a, b) <= 1e-12

    def test_numpy_backend_deterministic(self):
        rng = make_rng(1)
        X = rng.standard_normal((100, 3))
        Y = rng.standard_normal((90, 3))
        bw = np.array([1.0])
        a = kernels.mmd_sums_numpy(X, Y, bw)
        b = kernels.mmd_sums_numpy(X, Y, bw)
        assert np.array_equal(a, b)

    def test_active_backend_deterministic(self):
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
        out = kernels.mmd_sums_numpy(X, Y, np.array([h]))
        sxx, syy, sxy = out[0]
        assert sxx == pytest.approx(2 * np.exp(-0.5), rel=1e-15)
        assert syy == 0.0
        assert sxy == pytest.approx(np.exp(-2.0) + np.exp(-0.5), rel=1e-15)

    def test_block_boundary_consistency(self):
        # sizes straddling the numpy chunking must not change results
        rng = make_rng(3)
        X = rng.standard_normal((2049, 2))
        Y = rng.standard_normal((2048, 2))
        bw = np.array([1.0])
        whole = kernels.mmd_sums_numpy(X, Y, bw)[0]
        # brute-force reference on the same data
        dxx = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
        dyy = ((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
        dxy = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
        kxx = np.exp(-dxx / 2.0)
        np.fill_diagonal(kxx, 0.0)
        kyy = np.exp(-dyy / 2.0)
        np.fill_diagonal(kyy, 0.0)
        ref = np.array([kxx.sum(), kyy.sum(), np.exp(-dxy / 2.0).sum()])
        assert rel_diff(whole, ref) <= 1e-12


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
    def test_flag_forces_numpy_fallback(self):
        code = (
            "import os, numpy as np\n"
            "from simdistill import kernels\n"
            "assert kernels.backend_name() == 'numpy', kernels.backend_name()\n"
            "assert not kernels.USING_NUMBA\n"
            "X = np.arange(8.0).reshape(4, 2); Y = X + 0.5\n"
            "out = kernels.mmd_sums(X, Y, np.array([1.0]))\n"
            "print(repr(out.tolist()))\n"
        )
        env = dict(os.environ, SIMDISTILL_NO_NUMBA="1")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        fallback = np.array(eval(proc.stdout))
        here = kernels.mmd_sums_numpy(
            np.arange(8.0).reshape(4, 2), np.arange(8.0).reshape(4, 2) + 0.5, np.array([1.0])
        )
        assert np.array_equal(fallback, here)

    def test_backend_name_reports(self):
        assert kernels.backend_name() in ("numpy", "numba")
        if os.environ.get("SIMDISTILL_NO_NUMBA"):
            assert kernels.backend_name() == "numpy"
