"""Sample-quality metrics for 2-D runs: kernel MMD, Gaussian-fit W2, mode coverage.

These stand in for large-scale perceptual metrics: MMD² is the main
distribution distance, the Gaussian-fit W2 summarizes the first two moments,
and mode coverage counts which mixture components receive mass (the
mode-collapse detector).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from . import kernels
from .oracles import GmmSpec

BANDWIDTH_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
BANDWIDTH_FLOOR = 1e-6
_MEDIAN_SUBSAMPLE = 4096


@dataclass(frozen=True)
class MetricRow:
    """One evaluation snapshot; serializes to the fixed CSV schema."""

    step: int
    phase1_loss: float
    phase2_loss: float
    mmd: float
    w2_gauss: float
    mode_coverage: float
    seconds: float

    CSV_HEADER = "step,phase1_loss,phase2_loss,mmd,w2_gauss,mode_coverage,seconds"

    def to_csv(self) -> str:
        return ",".join(
            [
                str(self.step),
                repr(float(self.phase1_loss)),
                repr(float(self.phase2_loss)),
                repr(float(self.mmd)),
                repr(float(self.w2_gauss)),
                repr(float(self.mode_coverage)),
                repr(float(self.seconds)),
            ]
        )


def median_heuristic_bandwidths(X: np.ndarray, Y: np.ndarray, factors=BANDWIDTH_FACTORS) -> np.ndarray:
    """Bandwidth ladder: factors × median pairwise distance of the pooled sample.

    The median is taken over a deterministic stride-subsample of at most
    ~4096 pooled points, so the ladder is a pure function of the inputs.
    """
    pooled = np.vstack([np.asarray(X, dtype=np.float64), np.asarray(Y, dtype=np.float64)])
    stride = max(1, int(np.ceil(pooled.shape[0] / _MEDIAN_SUBSAMPLE)))
    med = _median_in_place(pdist(pooled[::stride]))
    return np.maximum(np.asarray(factors, dtype=np.float64) * med, BANDWIDTH_FLOOR)


def _median_in_place(d: np.ndarray) -> float:
    """``np.median(d)`` to the bit, partitioning ``d`` itself instead of a copy.

    NaN sorts last, so a NaN anywhere leaves one at or after the pivot, and
    the result is NaN as with ``np.median``.
    """
    if d.size == 0:
        return float("nan")
    k = d.size // 2
    d.partition(k)
    if np.isnan(d[k:].max()):
        return float("nan")
    if d.size % 2:
        return float(d[k])
    return float(np.mean([d[:k].max(), d[k]]))


def mmd_rbf(X, Y, bandwidths=None, unbiased: bool = True) -> float:
    """MMD² between samples, summed over an RBF bandwidth ladder.

    Uses the unbiased estimator by default (diagonal terms excluded), which
    can be slightly negative under the null. Symmetric exactly: arguments are
    put in a canonical order before any arithmetic. The pair sums come from
    ``kernels.mmd_sums``: one Gram product and, on the default ladder, one exp
    per row block, the narrower rungs squared from the widest. Each sum is
    within ~1e-13 relative of the sum of exps. Each of the three terms is at
    most 1 per rung, so MMD² is within ~1e-12 of the exp-per-rung value in
    absolute terms, a larger share of a small MMD² as the terms cancel.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError(f"need two (n, d) sample sets with equal d, got {X.shape} vs {Y.shape}")
    if len(X) < 2 or len(Y) < 2:
        raise ValueError("need at least 2 samples on each side")
    if X.tobytes() > Y.tobytes():  # canonical order makes mmd(X,Y) == mmd(Y,X) exact
        X, Y = Y, X
    if bandwidths is None:
        bandwidths = median_heuristic_bandwidths(X, Y)
    sums = kernels.mmd_sums(X, Y, np.asarray(bandwidths, dtype=np.float64))
    m, n = float(len(X)), float(len(Y))
    total = 0.0
    for sxx, syy, sxy in sums:
        if unbiased:
            total += sxx / (m * (m - 1.0)) + syy / (n * (n - 1.0)) - 2.0 * sxy / (m * n)
        else:
            total += (sxx + m) / m**2 + (syy + n) / n**2 - 2.0 * sxy / (m * n)
    return float(total)


def gaussian_w2_moments(mu_x, cov_x, mu_y, cov_y) -> float:
    """Closed-form W2 between N(mu_x, cov_x) and N(mu_y, cov_y)."""
    mu_x, mu_y = np.asarray(mu_x, dtype=np.float64), np.asarray(mu_y, dtype=np.float64)
    cov_x, cov_y = np.asarray(cov_x, dtype=np.float64), np.asarray(cov_y, dtype=np.float64)
    ry = _psd_sqrt(cov_y)
    cross = _psd_sqrt(ry @ cov_x @ ry)
    w2sq = float(np.sum((mu_x - mu_y) ** 2) + np.trace(cov_x + cov_y - 2.0 * cross))
    return float(np.sqrt(max(w2sq, 0.0)))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def gaussian_w2(X, Y, ridge: float = 1e-9) -> float:
    """W2 between the moment-matched Gaussian fits of two sample sets."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    d = X.shape[1]
    if len(X) < d + 1 or len(Y) < d + 1:
        raise ValueError(f"need more than dim+1={d + 1} samples per side, got {len(X)}, {len(Y)}")
    cov_x = np.cov(X, rowvar=False) + ridge * np.eye(d)
    cov_y = np.cov(Y, rowvar=False) + ridge * np.eye(d)
    return gaussian_w2_moments(X.mean(axis=0), cov_x, Y.mean(axis=0), cov_y)


def mode_coverage(
    X,
    gmm: GmmSpec,
    radius_multiplier: float = 3.0,
    coverage_min_fraction: float = 0.02,
) -> tuple[float, np.ndarray]:
    """Fraction of mixture modes holding at least the threshold mass of X.

    A mode counts as covered when ≥ ``coverage_min_fraction`` of the samples
    lie within ``radius_multiplier · s_k`` of its mean. Counts are per mode;
    a sample may fall inside several overlapping modes.
    """
    if radius_multiplier <= 0:
        raise ValueError(f"radius multiplier must be positive, got {radius_multiplier}")
    X = np.asarray(X, dtype=np.float64)
    dists = np.linalg.norm(X[:, None, :] - gmm.means[None, :, :], axis=2)  # (n, K)
    counts = (dists <= radius_multiplier * gmm.scales[None, :]).sum(axis=0)
    covered = counts >= coverage_min_fraction * len(X)
    return float(covered.sum() / gmm.n_components), counts
