"""Hot numeric kernels: pairwise RBF sums for MMD and mixture field evaluation.

Both are numpy only, one implementation per formula. ``mmd_sums`` builds its
squared distances in row blocks from BLAS Gram products, so its memory grows
linearly in the sample size. ``gmm_fields`` is the one implementation of the
diffused-mixture math, which both the plain-array oracles and the graph-mode
score primitive in ``oracles`` call.
"""

from __future__ import annotations

import numpy as np

# Rows per block of squared distances. The two float64 buffers of _BLOCK × n
# (5 MB at n = 10⁴) stay in cache across the bandwidth passes; at n = 10⁴ on
# a 2-vCPU Xeon with one BLAS thread, blocks of 512 rows ran ~40% slower.
_BLOCK = 64


# ---------------------------------------------------------------------------
# pairwise RBF sums (the O(n²) core of the MMD estimator)


def mmd_sums(X: np.ndarray, Y: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """Σ exp(-‖a-b‖²/(2h²)) over XX (i≠j), YY (i≠j), XY pairs, per bandwidth.

    Returns an array of shape (len(bandwidths), 3) with columns
    (sum_xx, sum_yy, sum_xy). Distances come from Gram blocks of the samples
    centred on their pooled mean: without the centring, ‖a‖² + ‖b‖² − 2abᵀ
    loses digits to cancellation when the clouds sit far from the origin.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    centre = np.vstack([X, Y]).mean(axis=0)
    X = X - centre
    Y = Y - centre
    scales = -0.5 / np.asarray(bandwidths, dtype=np.float64) ** 2
    return np.stack(
        [_pair_sums(X, X, scales, True), _pair_sums(Y, Y, scales, True), _pair_sums(X, Y, scales, False)],
        axis=1,
    )


def _pair_sums(A: np.ndarray, B: np.ndarray, scales: np.ndarray, same: bool) -> np.ndarray:
    """Σ_ij exp(scale·‖a_i − b_j‖²) per scale; over i ≠ j when ``same`` (B is A).

    With ``same`` each row block pairs only with columns from its own block
    onward: the diagonal block is summed whole with its diagonal removed, and
    the rest counts twice for the mirrored lower triangle.
    """
    a2 = np.einsum("ij,ij->i", A, A)
    b2 = a2 if same else np.einsum("ij,ij->i", B, B)
    sums = np.zeros(len(scales))
    for i0 in range(0, len(A), _BLOCK):
        i1 = min(i0 + _BLOCK, len(A))
        j0 = i0 if same else 0
        sq = A[i0:i1] @ B[j0:].T
        sq *= -2.0
        sq += a2[i0:i1, None]
        sq += b2[None, j0:]
        np.maximum(sq, 0.0, out=sq)
        if same:
            rows = np.arange(i1 - i0)
            sq[rows, rows] = np.inf  # exp(-inf) = 0 drops the i = j terms
        k = np.empty_like(sq)
        for b, scale in enumerate(scales):
            np.multiply(sq, scale, out=k)
            np.exp(k, out=k)
            if same:
                sums[b] += k[:, : i1 - i0].sum() + 2.0 * k[:, i1 - i0 :].sum()
            else:
                sums[b] += k.sum()
    return sums


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


def backend_name() -> str:
    """The array backend the kernels run on."""
    return "numpy"
