"""Correctness checks for the benchmark, computed apart from the package.

Every check returns a list of failure messages; an empty list means the
output passed. The checks recompute what the program reports by another
path (a BLAS Gram matrix instead of the difference tensor, a 2-D closed form
instead of an eigen-decomposition, a k-d tree instead of a distance matrix)
or test a property the method must have (the posterior mean minimises the
denoising loss, distillation lowers MMD², seeded runs repeat to the byte).
``controls.py`` plants a defect in front of each check and shows that it is
rejected.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.spatial import cKDTree

# The bandwidth ladder of the package's MMD: factors times the median
# pairwise distance of a stride-subsample of at most ~4096 pooled points.
LADDER_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
MEDIAN_SUBSAMPLE = 4096

# |mmd_rbf − Gram MMD²| must stay below MMD_ABS_TOL + MMD_REL_TOL·|MMD²|.
# Observed gaps are ~1e-15 at n = 2048 (float64 sums in another order); one
# of the 15 kernel sums perturbed by 1e-6 moves MMD² by ~1e-6.
MMD_ABS_TOL = 1e-11
MMD_REL_TOL = 1e-9
PLANTED_SE_LIMIT = 4.0  # |estimate − population MMD²| in first-order SEs
W2_REL_TOL = 1e-9
# (L_net − L_oracle) / (L_untrained − L_oracle): 0.0009-0.0019 for 20 of
# seeds 0-21 after 1500 steps, but 0.011 and 0.049 for the other two (held-out
# losses 25 and 100 against the oracle's 4.5), so the bound sits well above.
TEACHER_GAP_FRACTION = 0.25
TEACHER_SE_LIMIT = 4.0  # L_net may undercut L_oracle by at most this many SEs


# ---------------------------------------------------------------------------
# MMD by a BLAS Gram matrix


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d2 = np.einsum("ij,ij->i", A, A)[:, None] + np.einsum("ij,ij->i", B, B)[None, :]
    d2 -= 2.0 * (A @ B.T)
    return np.maximum(d2, 0.0, out=d2)


def canonical_pair(X: np.ndarray, Y: np.ndarray):
    """The argument order ``mmd_rbf`` documents: lexicographic on the bytes."""
    return (Y, X) if X.tobytes() > Y.tobytes() else (X, Y)


def median_ladder(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    X, Y = canonical_pair(X, Y)
    pooled = np.vstack([X, Y])
    stride = max(1, math.ceil(len(pooled) / MEDIAN_SUBSAMPLE))
    P = pooled[::stride]
    upper = []
    for i0 in range(0, len(P), 512):
        d2 = _sq_dists(P[i0 : i0 + 512], P)
        rows = np.arange(d2.shape[0])[:, None]
        upper.append(np.sqrt(d2[(i0 + rows) < np.arange(len(P))[None, :]]))
    return np.asarray(LADDER_FACTORS) * float(np.median(np.concatenate(upper)))


def _sym_sum(A, scales, block, rows):
    """Σ over i ≠ j of the kernel within one sample, from the upper triangle."""
    total = 0.0
    for i0 in range(0, len(A), block):
        b = min(block, len(A) - i0)
        d2 = _sq_dists(A[i0 : i0 + b], A[i0:])
        buf = np.empty_like(d2)
        r = np.arange(b)
        for s in scales:
            np.multiply(d2, s, out=buf)
            np.exp(buf, out=buf)
            buf[r, r] = 0.0
            rest = buf[:, b:]
            total += buf[:, :b].sum() + 2.0 * rest.sum()
            if rows is not None:
                rows[i0 : i0 + b] += buf.sum(axis=1)
                rows[i0 + b :] += rest.sum(axis=0)
    return total


def _cross_sum(A, B, scales, block, rows, cols):
    total = 0.0
    for i0 in range(0, len(A), block):
        d2 = _sq_dists(A[i0 : i0 + block], B)
        buf = np.empty_like(d2)
        for s in scales:
            np.multiply(d2, s, out=buf)
            np.exp(buf, out=buf)
            if rows is None:
                total += buf.sum()
            else:
                rs = buf.sum(axis=1)
                total += rs.sum()
                rows[i0 : i0 + len(rs)] += rs
                cols += buf.sum(axis=0)
    return total


def gram_mmd(X: np.ndarray, Y: np.ndarray, bandwidths=None, with_se: bool = False, block: int = 32) -> dict:
    """Unbiased MMD² summed over the ladder; with ``with_se``, its first-order SE.

    Returns ``{"mmd2", "se", "bandwidths"}``. The SE is the non-degenerate
    U-statistic approximation 4·Var(h_x)/m + 4·Var(h_y)/n, with h the
    per-point mean kernel to its own sample minus that to the other one.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    X, Y = canonical_pair(X, Y)
    h = median_ladder(X, Y) if bandwidths is None else np.asarray(bandwidths, dtype=np.float64)
    m, n = len(X), len(Y)
    scales = -1.0 / (2.0 * h * h)
    rx, ry, rxy, cxy = (np.zeros(k) if with_se else None for k in (m, n, m, n))
    sxx = _sym_sum(X, scales, block, rx)
    syy = _sym_sum(Y, scales, block, ry)
    sxy = _cross_sum(X, Y, scales, block, rxy, cxy)
    mmd2 = sxx / (m * (m - 1.0)) + syy / (n * (n - 1.0)) - 2.0 * sxy / (m * n)
    se = float("nan")
    if with_se:
        hx = rx / (m - 1.0) - rxy / n
        hy = ry / (n - 1.0) - cxy / m
        se = math.sqrt(4.0 * hx.var(ddof=1) / m + 4.0 * hy.var(ddof=1) / n)
    return {"mmd2": float(mmd2), "se": se, "bandwidths": h}


def population_mmd2(p, q, bandwidths) -> float:
    """Closed-form MMD² between two isotropic mixtures, summed over the ladder.

    E k_h(x, y) for x ~ N(μᵢ, sᵢ²I), y ~ N(μⱼ, sⱼ²I) is
    (h²/(h²+sᵢ²+sⱼ²))^{d/2} exp(−‖μᵢ−μⱼ‖²/(2(h²+sᵢ²+sⱼ²))).
    """

    def cross(a, b, h2):
        v = h2 + a.scales[:, None] ** 2 + b.scales[None, :] ** 2
        d2 = np.square(a.means[:, None, :] - b.means[None, :, :]).sum(axis=2)
        k = (h2 / v) ** (a.dim / 2.0) * np.exp(-d2 / (2.0 * v))
        return float(a.weights @ k @ b.weights)

    total = 0.0
    for h in np.asarray(bandwidths, dtype=np.float64):
        h2 = h * h
        total += cross(p, p, h2) + cross(q, q, h2) - 2.0 * cross(p, q, h2)
    return total


def _mmd_gap(reported: float, ref: float, what: str) -> list[str]:
    gap = abs(reported - ref)
    if not gap <= MMD_ABS_TOL + MMD_REL_TOL * abs(ref):
        return [f"{what}: mmd_rbf {reported!r} vs Gram path {ref!r} (gap {gap:.3e})"]
    return []


def check_mmd(X, Y, reported: float, what: str) -> list[str]:
    """``reported`` must equal the Gram-path MMD² at the re-derived ladder."""
    return _mmd_gap(reported, gram_mmd(X, Y)["mmd2"], what)


def check_planted_mmd(X, Y, reported: float, p, q) -> list[str]:
    """On draws from two known mixtures, the estimate must agree with the
    Gram path and lie within PLANTED_SE_LIMIT SEs of the population MMD²."""
    g = gram_mmd(X, Y, with_se=True)
    pop = population_mmd2(p, q, g["bandwidths"])
    errors = _mmd_gap(reported, g["mmd2"], "planted pair")
    z = abs(reported - pop) / g["se"]
    if not z <= PLANTED_SE_LIMIT:
        errors.append(f"planted pair: estimate {reported:.6g} vs population {pop:.6g} is {z:.1f} SE off")
    return errors


# ---------------------------------------------------------------------------
# W2 and mode coverage


def gaussian_w2_2d(X: np.ndarray, Y: np.ndarray, ridge: float = 1e-9) -> float:
    """W2 between moment-matched 2-D Gaussians without a matrix square root:
    tr((Σy^½ Σx Σy^½)^½) = √(tr(ΣxΣy) + 2√(det Σx det Σy)) for 2×2 PSD."""
    cx = np.cov(X, rowvar=False) + ridge * np.eye(2)
    cy = np.cov(Y, rowvar=False) + ridge * np.eye(2)
    cross = math.sqrt(np.trace(cx @ cy) + 2.0 * math.sqrt(np.linalg.det(cx) * np.linalg.det(cy)))
    w2sq = float(np.sum((X.mean(axis=0) - Y.mean(axis=0)) ** 2) + np.trace(cx) + np.trace(cy) - 2.0 * cross)
    return math.sqrt(max(w2sq, 0.0))


def check_w2(X, Y, reported: float) -> list[str]:
    ref = gaussian_w2_2d(X, Y)
    if not abs(reported - ref) <= W2_REL_TOL * max(abs(ref), 1e-12):
        return [f"gaussian_w2 {reported!r} vs closed form {ref!r}"]
    return []


def check_coverage(X, gmm, reported_fraction: float, reported_counts, radius: float = 3.0, floor: float = 0.02) -> list[str]:
    tree = cKDTree(X)
    counts = np.array([tree.query_ball_point(mu, r=radius * s, return_length=True) for mu, s in zip(gmm.means, gmm.scales)])
    fraction = float(np.mean(counts >= floor * len(X)))
    errors = []
    if not np.array_equal(np.asarray(reported_counts), counts):
        errors.append(f"mode counts {[int(c) for c in reported_counts]} vs k-d tree {counts.tolist()}")
    if reported_fraction != fraction:
        errors.append(f"coverage {reported_fraction} vs k-d tree {fraction}")
    return errors


# ---------------------------------------------------------------------------
# teacher quality


def edm_weight(t: np.ndarray, sigma_data: float = 0.5) -> np.ndarray:
    return (t * t + sigma_data**2) / (t * sigma_data) ** 2


def heldout_draws(gmm, seed: int, levels: int = 32, per_level: int = 512):
    """Held-out (x0, t, x_t) on a midpoint-quantile grid of the teacher's
    log-normal(−1.2, 1.2) time law; one t per block of rows, so the oracle
    is called once per level."""
    from scipy.stats import norm

    rng = np.random.default_rng([seed, 0x7E57])
    t_levels = np.exp(-1.2 + 1.2 * norm.ppf((np.arange(levels) + 0.5) / levels))
    comps = rng.choice(gmm.n_components, size=levels * per_level, p=gmm.weights)
    x0 = gmm.means[comps] + gmm.scales[comps, None] * rng.standard_normal((levels * per_level, gmm.dim))
    t = np.repeat(t_levels, per_level)
    x_t = x0 + t[:, None] * rng.standard_normal(x0.shape)
    return x0, t, x_t, t_levels, per_level


def dsm_losses(denoise, x0, t) -> np.ndarray:
    """Per-row EDM-weighted squared error of a denoiser's output."""
    return edm_weight(t) * np.square(denoise - x0).sum(axis=1)


def check_teacher(net_out, oracle_out, untrained_out, x0, t) -> tuple[list[str], dict]:
    """The trained net may not beat the posterior mean (which minimises the
    loss) beyond noise, and must close all but TEACHER_GAP_FRACTION of the
    untrained net's gap to it."""
    ln, lo, lu = (dsm_losses(d, x0, t) for d in (net_out, oracle_out, untrained_out))
    diff = ln - lo
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    frac = diff.mean() / (lu.mean() - lo.mean())
    figures = {"loss_net": ln.mean(), "loss_oracle": lo.mean(), "loss_untrained": lu.mean(), "gap_fraction": frac}
    errors = []
    if diff.mean() < -TEACHER_SE_LIMIT * se:
        errors.append(f"net loss {ln.mean():.4f} undercuts the posterior-mean oracle {lo.mean():.4f} by {-diff.mean() / se:.1f} SE")
    if not frac <= TEACHER_GAP_FRACTION:
        errors.append(f"net closes too little of the untrained gap: fraction left {frac:.4f} > {TEACHER_GAP_FRACTION}")
    return errors, figures


# ---------------------------------------------------------------------------
# distillation and the verify battery


def check_distilled(initial_samples, final_samples, reference, fraction: float | None) -> tuple[list[str], dict]:
    """MMD² to the reference must fall to at most ``fraction`` of the initial
    generator's; with ``fraction`` None the figures are only recorded."""
    before = gram_mmd(initial_samples, reference)["mmd2"]
    after = gram_mmd(final_samples, reference)["mmd2"]
    figures = {"mmd2_initial": before, "mmd2_final": after, "ratio": after / before}
    if fraction is not None and not after <= fraction * before:
        return [f"MMD² fell from {before:.4g} only to {after:.4g} (> {fraction} of it)"], figures
    return [], figures


def state_digest(state: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(state):
        h.update(name.encode())
        h.update(np.ascontiguousarray(state[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def check_identical(digests: list[str], what: str) -> list[str]:
    if len(set(digests)) != 1:
        return [f"{what} differ between repeats at one seed: {digests}"]
    return []


def check_reports(exit_code: int, payload: dict, expected: int) -> list[str]:
    """Every report of ``simdistill verify`` passes, and all were written."""
    checks = payload.get("checks", [])
    errors = [f"{c['name']}: {c['verdict']}" for c in checks if c["verdict"] != "pass"]
    if len(checks) != expected:
        errors.append(f"{len(checks)} reports, expected {expected}")
    if exit_code != 0 or payload.get("all_passed") is not True:
        errors.append(f"verify exited {exit_code}, all_passed={payload.get('all_passed')}")
    return errors
