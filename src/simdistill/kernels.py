"""Hot numeric kernels: pairwise RBF sums for MMD and mixture field evaluation.

The mixture fields are numpy only: they are the one implementation of the
diffused-mixture math, which both the plain-array oracles and the graph-mode
score primitive in ``oracles`` call. The MMD sums also have a numba-compiled
twin. Its backend is chosen once at import: numba when it is importable and
the environment variable ``SIMDISTILL_NO_NUMBA`` is unset/empty, numpy
otherwise. Both MMD backends implement the same math and agree to
floating-point round-off (reduction orders differ, so agreement is ~1e-12
relative, not bit-exact); each backend on its own is deterministic.
``benchmarks/bench_kernels.py`` compares their throughput.

JIT compilation is serial with fastmath disabled: results must not depend on
thread count or on value-unsafe reassociation.
"""

from __future__ import annotations

import os

import numpy as np

try:  # pragma: no cover - exercised via the env flag in tests
    if os.environ.get("SIMDISTILL_NO_NUMBA"):
        raise ImportError("numba disabled by SIMDISTILL_NO_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


# ---------------------------------------------------------------------------
# pairwise RBF sums (the O(n²) core of the MMD estimator)


def mmd_sums_numpy(X: np.ndarray, Y: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """Σ exp(-‖a-b‖²/(2h²)) over XX (i≠j), YY (i≠j), XY pairs, per bandwidth.

    Returns an array of shape (len(bandwidths), 3) with columns
    (sum_xx, sum_yy, sum_xy). Row blocks keep peak memory bounded.
    """
    bandwidths = np.asarray(bandwidths, dtype=np.float64)
    out = np.zeros((len(bandwidths), 3))
    denom = 2.0 * bandwidths**2

    def accumulate(A, B, col, skip_diag):
        block = 2048
        for i0 in range(0, A.shape[0], block):
            a = A[i0 : i0 + block]
            sq = np.square(a[:, None, :] - B[None, :, :]).sum(axis=2)
            if skip_diag:
                rows = np.arange(a.shape[0])
                sq[rows, i0 + rows] = np.inf  # kills the diagonal term
            for b, d2 in enumerate(denom):
                out[b, col] += np.exp(-sq / d2).sum()

    accumulate(X, X, 0, True)
    accumulate(Y, Y, 1, True)
    accumulate(X, Y, 2, False)
    return out


@njit(cache=True)
def _mmd_sums_jit(X, Y, denom):  # pragma: no cover - byte-compiled
    m, n, d = X.shape[0], Y.shape[0], X.shape[1]
    B = denom.shape[0]
    out = np.zeros((B, 3))
    for i in range(m):
        for j in range(i + 1, m):
            sq = 0.0
            for k in range(d):
                diff = X[i, k] - X[j, k]
                sq += diff * diff
            for b in range(B):
                out[b, 0] += 2.0 * np.exp(-sq / denom[b])
    for i in range(n):
        for j in range(i + 1, n):
            sq = 0.0
            for k in range(d):
                diff = Y[i, k] - Y[j, k]
                sq += diff * diff
            for b in range(B):
                out[b, 1] += 2.0 * np.exp(-sq / denom[b])
    for i in range(m):
        for j in range(n):
            sq = 0.0
            for k in range(d):
                diff = X[i, k] - Y[j, k]
                sq += diff * diff
            for b in range(B):
                out[b, 2] += np.exp(-sq / denom[b])
    return out


def mmd_sums_numba(X: np.ndarray, Y: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    bandwidths = np.asarray(bandwidths, dtype=np.float64)
    return _mmd_sums_jit(
        np.ascontiguousarray(X, dtype=np.float64),
        np.ascontiguousarray(Y, dtype=np.float64),
        2.0 * bandwidths**2,
    )


# ---------------------------------------------------------------------------
# Gaussian-mixture diffused fields (log-density, responsibilities, scores)


def gmm_fields(
    x: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    log_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diffused-mixture log-density and score at x, with their parts.

    Args:
        x: (n, d) evaluation points.
        means: (K, d) component means.
        variances: per-component isotropic variances with the noise already
            included (signal² + t²): shape (K,) when every row shares one
            time, (n, K) for one time per row.
        log_weights: (K,) log mixing weights.

    Returns:
        (logdens (n,), resp (n, K), comp (n, K, d), score (n, d)), where
        resp are the posterior responsibilities r_k, comp the per-component
        scores a_k = (μ_k − x)/v_k and score s = Σ_k r_k a_k. The score's
        Jacobian, −(Σ_k r_k/v_k) I + Σ_k r_k a_k a_kᵀ − s sᵀ, needs nothing
        else.
    """
    d = x.shape[1]
    comp = means[None, :, :] - x[:, None, :]  # (n, K, d)
    sq = np.square(comp).sum(axis=2)  # (n, K)
    logits = log_weights - 0.5 * d * np.log(2.0 * np.pi * variances) - sq / (2.0 * variances)
    peak = logits.max(axis=1, keepdims=True)
    w = np.exp(logits - peak)
    total = w.sum(axis=1, keepdims=True)
    logdens = (peak + np.log(total)).ravel()
    resp = w / total
    comp /= variances[..., None]
    score = (resp[:, :, None] * comp).sum(axis=1)
    return logdens, resp, comp, score


USING_NUMBA = HAS_NUMBA
mmd_sums = mmd_sums_numba if USING_NUMBA else mmd_sums_numpy


def backend_name() -> str:
    return "numba" if USING_NUMBA else "numpy"
