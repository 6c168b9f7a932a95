"""Closed-form distributions with exact diffused scores, and the brute-force
time-integral score divergence they make computable.

Three families are supported, each with an analytic score of its
VE-diffused marginal (noise N(0, t²I) added on top):

- :class:`GaussianSpec`  — N(mu, Sigma), diffused score −(Σ+t²I)⁻¹(x−μ);
- :class:`GmmSpec`       — isotropic mixture, diffused mixture has variances
  s_k²+t² and closed-form responsibilities, score and posterior denoiser;
- :class:`LinearGenerator` — push-forward x = Az + b of z ~ N(0, I), i.e.
  N(b, AAᵀ); the analytically tractable stand-in for a one-step generator.

Every family exposes both a plain-numpy score (bulk Monte-Carlo work) and a
graph-mode score built from autodiff tensors (``*_score_graph``), which lets
verification losses differentiate through the evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distances as dist_mod
from . import kernels
from .diffusion import DiffusionSpec, TimeDistribution, WeightingFn, denoiser_from_score, weight_batch
from .nnkit import tensor as T
from .nnkit.tensor import Tensor


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class GaussianSpec:
    """N(mean, cov) with a positive-definite covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = np.asarray(self.cov, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match dimension {mean.size}")
        if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as e:
            raise ValueError("covariance must be positive definite") from e

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class GmmSpec:
    """Mixture of isotropic Gaussians: weights w_k, means mu_k, scales s_k."""

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        m = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        s = np.asarray(self.scales, dtype=np.float64)
        if s.ndim == 0:
            s = np.full(w.size, float(s))
        if w.size == 0:
            raise ValueError("need at least one component")
        if np.any(w <= 0):
            raise ValueError("component weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        if m.shape[0] != w.size or s.shape != (w.size,):
            raise ValueError(
                f"inconsistent component counts: {w.size} weights, {m.shape[0]} means, {s.shape} scales"
            )
        if np.any(s <= 0):
            raise ValueError("component scales must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "scales", s)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size


def ring_gmm(n_modes: int = 8, radius: float = 4.0, scale: float = 0.3) -> GmmSpec:
    """Equal-weight modes on a circle — the standard 2-D multi-modal test bed."""
    angles = 2.0 * np.pi * np.arange(n_modes) / n_modes
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return GmmSpec(np.full(n_modes, 1.0 / n_modes), means, np.full(n_modes, scale))


@dataclass(frozen=True)
class LinearGenerator:
    """One-step linear generator x = A z + b, z ~ N(0, I_latent)."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = np.atleast_1d(np.asarray(self.b, dtype=np.float64))
        if A.shape[0] != b.size:
            raise ValueError(f"A has {A.shape[0]} output rows but b has {b.size} entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.A.shape[1]

    @classmethod
    def from_flat(cls, theta: np.ndarray, dim: int, latent_dim: int) -> "LinearGenerator":
        """Rebuild from the flattened (A, b) parameter vector."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.size != dim * latent_dim + dim:
            raise ValueError(f"theta has {theta.size} entries, expected {dim * latent_dim + dim}")
        return cls(theta[: dim * latent_dim].reshape(dim, latent_dim), theta[dim * latent_dim :])

    def flat(self) -> np.ndarray:
        return np.concatenate([self.A.ravel(), self.b])


# ---------------------------------------------------------------------------
# shape plumbing


def _rows(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError(f"expected a point or batch of points, got shape {arr.shape}")


def _diffused_cov(base_cov: np.ndarray, t: float) -> np.ndarray:
    t = float(t)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return base_cov + t * t * np.eye(base_cov.shape[0])


def _inv_pd(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as e:
        raise ValueError(f"{what} is singular; need t > 0 or a full-rank construction") from e
    return np.linalg.inv(cov)


# ---------------------------------------------------------------------------
# Gaussian


def gaussian_score(spec: GaussianSpec, x, t: float) -> np.ndarray:
    """Score of N(mu, Sigma + t²I) at x."""
    pts, single = _rows(x)
    inv = _inv_pd(_diffused_cov(spec.cov, t), "diffused covariance")
    out = -(pts - spec.mean) @ inv
    return out[0] if single else out


def gaussian_log_density(spec: GaussianSpec, x, t: float):
    from scipy import stats  # not at module level: scipy.stats takes ~0.8 s to import, and only tests need it

    pts, single = _rows(x)
    cov = _diffused_cov(spec.cov, t)
    out = stats.multivariate_normal.logpdf(pts, mean=spec.mean, cov=cov)
    out = np.atleast_1d(out)
    return float(out[0]) if single else out


def gaussian_sample(spec: GaussianSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    chol = np.linalg.cholesky(spec.cov)
    return spec.mean + rng.standard_normal((n, spec.dim)) @ chol.T


def gaussian_score_graph(spec: GaussianSpec, x: Tensor, t: float) -> Tensor:
    """Graph-mode Gaussian score; scalar t only (one matrix inverse)."""
    if np.ndim(t) != 0:
        raise ValueError("graph-mode Gaussian score takes a scalar time")
    x = _as_graph_input(x)
    inv = _inv_pd(_diffused_cov(spec.cov, float(t)), "diffused covariance")
    return T.matmul(spec.mean - x, Tensor(inv))


# ---------------------------------------------------------------------------
# isotropic GMM


def _diffused_variances(spec: GmmSpec, t) -> np.ndarray:
    """Component variances s_k² + t²: (K,) for a scalar t, (n, K) for one t per row."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim > 1:
        raise ValueError(f"time must be a scalar or one value per row, got shape {t.shape}")
    if np.any(t < 0):
        raise ValueError(f"time must be nonnegative, got {t!r}")
    return spec.scales**2 + (t * t)[..., None]


def _gmm_fields(spec: GmmSpec, pts: np.ndarray, t):
    """Kernel outputs (logdens, resp, comp, score) at the rows of pts."""
    return kernels.gmm_fields(pts, spec.means, _diffused_variances(spec, t), np.log(spec.weights))


def _check_denoiser_time(t) -> None:
    if np.any(np.asarray(t) <= 0):
        raise ValueError(f"denoiser needs t > 0, got {t!r}")


def gmm_score(spec: GmmSpec, x, t: float = 0.0) -> np.ndarray:
    """Score of the diffused mixture (variances s_k² + t²) at x."""
    pts, single = _rows(x)
    score = _gmm_fields(spec, pts, t)[3]
    return score[0] if single else score


def gmm_denoiser(spec: GmmSpec, x_t, t: float) -> np.ndarray:
    """Posterior mean E[x0 | x_t] of the diffused mixture (Tweedie: x_t + t²·score)."""
    _check_denoiser_time(t)
    x_t = np.asarray(x_t, dtype=np.float64)
    return denoiser_from_score(gmm_score(spec, x_t, t), x_t, t)


def gmm_log_density(spec: GmmSpec, x, t: float = 0.0):
    pts, single = _rows(x)
    logdens = _gmm_fields(spec, pts, t)[0]
    return float(logdens[0]) if single else logdens


def gmm_sample(spec: GmmSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    comps = rng.choice(spec.n_components, size=n, p=spec.weights)
    return spec.means[comps] + spec.scales[comps, None] * rng.standard_normal((n, spec.dim))


def _as_graph_input(x) -> Tensor:
    """Graph oracles accept a Tensor or a constant ndarray batch."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def gmm_score_graph(spec: GmmSpec, x: Tensor, t) -> Tensor:
    """Graph-mode mixture score as one tape node; t scalar or one value per row.

    The score's Jacobian is the Hessian of log p_t,
    −(Σ_k r_k/v_k) I + Σ_k r_k a_k a_kᵀ − s sᵀ, with responsibilities r_k and
    per-component scores a_k = (μ_k − x)/v_k from the kernel. It is
    symmetric, so the vector-Jacobian product applies it to g directly.
    """
    x = _as_graph_input(x)
    v = _diffused_variances(spec, t)
    _, resp, comp, score = kernels.gmm_fields(x.data, spec.means, v, np.log(spec.weights))

    def vjp(g):
        g_comp = np.einsum("nkd,nd->nk", comp, g)
        curvature = (resp / v).sum(axis=1, keepdims=True)
        g_score = (g * score).sum(axis=1, keepdims=True)
        return (np.einsum("nk,nkd->nd", resp * g_comp, comp) - curvature * g - g_score * score,)

    return T.primitive(score, "gmm_score", (x,), vjp)


def gmm_denoiser_graph(spec: GmmSpec, x_t: Tensor, t) -> Tensor:
    """Graph-mode posterior mean E[x0 | x_t] = x_t + t²·score; t scalar or per-row."""
    _check_denoiser_time(t)
    x_t = _as_graph_input(x_t)
    return denoiser_from_score(gmm_score_graph(spec, x_t, t), x_t, t)


# ---------------------------------------------------------------------------
# linear push-forward generator


def linear_gen_cov(g: LinearGenerator, t: float) -> np.ndarray:
    return _diffused_cov(g.A @ g.A.T, t)


def linear_gen_score(g: LinearGenerator, x, t: float) -> np.ndarray:
    """Score of N(b, AAᵀ + t²I) at x."""
    pts, single = _rows(x)
    inv = _inv_pd(linear_gen_cov(g, t), "push-forward covariance")
    out = -(pts - g.b) @ inv
    return out[0] if single else out


def linear_gen_log_density(g: LinearGenerator, x, t: float):
    from scipy import stats  # see gaussian_log_density

    pts, single = _rows(x)
    cov = linear_gen_cov(g, t)
    _inv_pd(cov, "push-forward covariance")
    out = np.atleast_1d(stats.multivariate_normal.logpdf(pts, mean=g.b, cov=cov))
    return float(out[0]) if single else out


def linear_gen_sample(g: LinearGenerator, rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, g.latent_dim)) @ g.A.T + g.b


def linear_gen_score_graph(g: LinearGenerator, x: Tensor, t: float) -> Tensor:
    """Graph-mode push-forward score; scalar t only."""
    if np.ndim(t) != 0:
        raise ValueError("graph-mode linear-generator score takes a scalar time")
    x = _as_graph_input(x)
    inv = _inv_pd(linear_gen_cov(g, float(t)), "push-forward covariance")
    return T.matmul(g.b - x, Tensor(inv))


# ---------------------------------------------------------------------------
# generic dispatch


def marginal_score(family, x, t: float) -> np.ndarray:
    """Diffused-marginal score of any analytic family."""
    if isinstance(family, GaussianSpec):
        return gaussian_score(family, x, t)
    if isinstance(family, GmmSpec):
        return gmm_score(family, x, t)
    if isinstance(family, LinearGenerator):
        return linear_gen_score(family, x, t)
    raise TypeError(f"no analytic score for {type(family).__name__}")


def marginal_score_graph(family, x: Tensor, t) -> Tensor:
    if isinstance(family, GaussianSpec):
        return gaussian_score_graph(family, x, t)
    if isinstance(family, GmmSpec):
        return gmm_score_graph(family, x, t)
    if isinstance(family, LinearGenerator):
        return linear_gen_score_graph(family, x, t)
    raise TypeError(f"no analytic score for {type(family).__name__}")


def sample_clean(family, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw from the un-diffused family."""
    if isinstance(family, GaussianSpec):
        return gaussian_sample(family, rng, n)
    if isinstance(family, GmmSpec):
        return gmm_sample(family, rng, n)
    if isinstance(family, LinearGenerator):
        return linear_gen_sample(family, rng, n)
    raise TypeError(f"no sampler for {type(family).__name__}")


def log_density(family, x, t: float = 0.0):
    if isinstance(family, GaussianSpec):
        return gaussian_log_density(family, x, t)
    if isinstance(family, GmmSpec):
        return gmm_log_density(family, x, t)
    if isinstance(family, LinearGenerator):
        return linear_gen_log_density(family, x, t)
    raise TypeError(f"no analytic log-density for {type(family).__name__}")


# ---------------------------------------------------------------------------
# time-integral score divergence, by brute force


@dataclass(frozen=True)
class DivergenceEstimate:
    value: float
    se: float
    n_mc: int
    n_grid: int


def time_grid_from_distribution(dist: TimeDistribution, spec: DiffusionSpec, n: int = 32) -> np.ndarray:
    """Midpoint-quantile grid of the time distribution, ascending.

    Averaging an integrand over this grid approximates its expectation under
    the distribution — the same measure the training losses sample from.
    """
    if n < 1:
        raise ValueError(f"grid size must be ≥ 1, got {n}")
    u = (np.arange(n) + 0.5) / n
    if dist.kind == "log-normal":
        return np.exp(dist.p_mean + dist.p_std * special.ndtri(u))
    if dist.kind == "karr-uniform":
        from .diffusion import karras_grid

        ks = np.minimum((u * (dist.k_max + 1)).astype(int), dist.k_max)
        return np.sort(karras_grid(spec)[ks])
    return np.sort(np.asarray(dist.values, dtype=np.float64))


def divergence_value(
    p,
    q,
    d: dist_mod.DistanceFn,
    w: WeightingFn,
    time_grid,
    n_mc: int,
    rng: np.random.Generator,
    sampling_dist=None,
) -> DivergenceEstimate:
    """Monte-Carlo + time-grid estimate of the integrated score divergence.

    At each grid time t, draws x_t by diffusing ``sampling_dist`` (default:
    p itself) and averages w(t)·d(score_p(x_t) − score_q(x_t)); the result is
    the equal-weight mean over grid nodes with its combined standard error.

    Draws consume the rng in a fixed order, so two calls with identically
    seeded generators see common random numbers. To finite-difference this
    estimate, evaluate every perturbed p in one :func:`divergence_values`
    call instead: it returns the same estimates to the bit from one set of
    draws and one teacher score per node.
    """
    sampler = p if sampling_dist is None else sampling_dist
    return divergence_values([p], q, d, w, time_grid, n_mc, rng, sampler)[0]


def divergence_values(
    ps,
    q,
    d: dist_mod.DistanceFn,
    w: WeightingFn,
    time_grid,
    n_mc: int,
    rng: np.random.Generator,
    sampling_dist,
) -> list[DivergenceEstimate]:
    """:func:`divergence_value` of each p in ``ps`` under common random numbers.

    At each grid node, x_t is drawn once from the diffused ``sampling_dist``
    and the teacher score q and the weight w(t) are computed once; each p
    then adds its own w(t)·d(score_p − score_q). The rng is consumed as one
    :func:`divergence_value` call consumes it, so estimate i equals
    ``divergence_value(ps[i], …, sampling_dist)`` on an identically seeded
    rng, to the bit.
    """
    grid = np.asarray(time_grid, dtype=np.float64).ravel()
    if grid.size == 0:
        raise ValueError("time grid must be non-empty")
    if n_mc < 1:
        raise ValueError(f"n_mc must be ≥ 1, got {n_mc}")
    if w.kind == "sid":
        raise ValueError("sid weighting is per-sample; use one or edm for divergence quadrature")
    total = np.zeros(len(ps))
    var_total = np.zeros(len(ps))
    for t in map(float, grid):
        x0 = sample_clean(sampling_dist, rng, n_mc)
        x_t = x0 + t * rng.standard_normal(x0.shape)
        score_q = marginal_score(q, x_t, t)
        wt = float(weight_batch(w, t)[0])
        for i, p in enumerate(ps):
            dv = np.atleast_1d(d.value(marginal_score(p, x_t, t) - score_q))
            total[i] += wt * dv.mean()
            if n_mc > 1:
                var_total[i] += wt * wt * dv.var(ddof=1) / n_mc
    g = grid.size
    return [
        DivergenceEstimate(value=float(v) / g, se=float(np.sqrt(s)) / g, n_mc=n_mc, n_grid=g)
        for v, s in zip(total, var_total)
    ]
