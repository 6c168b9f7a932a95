"""Variance-exploding forward process, sigma schedule, time samplers, weightings.

The forward process is ``x_t = x_0 + t * eps`` with ``eps ~ N(0, I)`` — the
zero-drift instantiation ``dx_t = t dw_t``. Noise level and time are the same
axis, so the schedule functions below speak of both interchangeably.

``perturb``, ``cond_score`` and ``score_from_denoiser`` accept either plain
numpy arrays or autodiff tensors; with tensors the result stays on the graph.
Time may be a scalar or one value per batch row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .nnkit.tensor import Tensor

SID_WEIGHT_CAP = 1e6  # keeps a degenerate batch finite while staying loud in logs


@dataclass(frozen=True)
class DiffusionSpec:
    """Configuration of the variance-exploding process and its sigma grid.

    ``drift`` is carried for completeness of the forward-SDE description but
    must stay zero: only the variance-exploding process is implemented.
    ``T`` (upper time bound) defaults to ``sigma_max`` since VE time and sigma
    coincide.
    """

    sigma_min: float = 0.002
    sigma_max: float = 80.0
    rho: float = 7.0
    K: int = 1000
    sigma_data: float = 0.5
    T: float | None = None
    drift: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.sigma_min < self.sigma_max):
            raise ValueError(f"need 0 < sigma_min < sigma_max, got {self.sigma_min}, {self.sigma_max}")
        if self.K < 2:
            raise ValueError(f"grid size K must be ≥ 2, got {self.K}")
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.drift != 0.0:
            raise ValueError("only the zero-drift variance-exploding process is supported")
        if self.T is None:
            object.__setattr__(self, "T", float(self.sigma_max))
        elif self.T <= 0:
            raise ValueError(f"time bound T must be positive, got {self.T}")


@dataclass(frozen=True)
class TimeDistribution:
    """Tagged sampling distribution over noise levels.

    kinds:
        ``log-normal``  — t = exp(p_mean + p_std * z), z standard normal;
        ``karr-uniform`` — t = sigma_k with k uniform on {0, ..., k_max};
        ``fixed-grid``  — t drawn uniformly from an explicit value list.
    """

    kind: str
    p_mean: float = 0.0
    p_std: float = 1.0
    k_max: int = 800
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "log-normal":
            if self.p_std <= 0:
                raise ValueError(f"log-normal needs p_std > 0, got {self.p_std}")
        elif self.kind == "karr-uniform":
            if self.k_max < 0:
                raise ValueError(f"karr-uniform needs k_max ≥ 0, got {self.k_max}")
        elif self.kind == "fixed-grid":
            if not self.values:
                raise ValueError("fixed-grid needs at least one value")
            if any(v <= 0 for v in self.values):
                raise ValueError(f"fixed-grid values must be positive, got {self.values}")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        else:
            raise ValueError(f"unknown time distribution kind {self.kind!r}")

    @classmethod
    def log_normal(cls, p_mean: float, p_std: float) -> "TimeDistribution":
        return cls("log-normal", p_mean=p_mean, p_std=p_std)

    @classmethod
    def karr_uniform(cls, k_max: int = 800) -> "TimeDistribution":
        return cls("karr-uniform", k_max=k_max)

    @classmethod
    def fixed_grid(cls, values) -> "TimeDistribution":
        return cls("fixed-grid", values=tuple(values))


@dataclass(frozen=True)
class WeightingFn:
    """Tagged per-time weighting.

    kinds:
        ``one`` — constant 1;
        ``edm`` — (t² + sigma_data²) / (t · sigma_data)²;
        ``sid`` — C · t⁴ / ‖x0 − denoised‖₁ with the denominator treated as a
        constant (no gradient); ``C`` defaults to the data dimension.
    """

    kind: str
    C: float | None = None
    sigma_data: float = 0.5

    def __post_init__(self):
        if self.kind not in ("one", "edm", "sid"):
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        if self.C is not None and self.C <= 0:
            raise ValueError(f"sid scale C must be positive, got {self.C}")
        if self.sigma_data <= 0:
            raise ValueError(f"sigma_data must be positive, got {self.sigma_data}")

    @classmethod
    def one(cls) -> "WeightingFn":
        return cls("one")

    @classmethod
    def edm(cls, sigma_data: float = 0.5) -> "WeightingFn":
        return cls("edm", sigma_data=sigma_data)

    @classmethod
    def sid(cls, C: float | None = None) -> "WeightingFn":
        return cls("sid", C=C)


# ---------------------------------------------------------------------------
# forward process


def _time_factor(t, positive=True):
    """Broadcastable time: positive scalar, or a column per batch row."""
    arr = np.asarray(t, dtype=np.float64)
    if positive and np.any(arr <= 0):
        raise ValueError(f"time must be positive, got {t!r}")
    if not positive and np.any(arr < 0):
        raise ValueError(f"time must be nonnegative, got {t!r}")
    if arr.ndim == 0:
        return float(arr)
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim == 2 and arr.shape[1] == 1:
        return arr
    raise ValueError(f"time must be a scalar or one value per row, got shape {arr.shape}")


def perturb(x0, t, eps):
    """Diffuse clean data: x_t = x0 + t * eps."""
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} does not match eps shape {eps.shape}")
    return x0 + _time_factor(t, positive=False) * eps


def cond_score(x0, x_t, t):
    """Score of the forward transition given the clean point: -(x_t - x0)/t²."""
    if x0.shape != x_t.shape:
        raise ValueError(f"x0 shape {x0.shape} does not match x_t shape {x_t.shape}")
    tf = _time_factor(t)
    return (x0 - x_t) / (tf * tf)


def score_from_denoiser(d_out, x_t, t):
    """Marginal score from a posterior-mean denoiser output: (d - x_t)/t²."""
    if d_out.shape != x_t.shape:
        raise ValueError(f"denoiser output shape {d_out.shape} does not match x_t shape {x_t.shape}")
    tf = _time_factor(t)
    return (d_out - x_t) / (tf * tf)


def denoiser_from_score(s, x_t, t):
    """Inverse of :func:`score_from_denoiser`: d = x_t + t² * s."""
    if s.shape != x_t.shape:
        raise ValueError(f"score shape {s.shape} does not match x_t shape {x_t.shape}")
    tf = _time_factor(t)
    return x_t + (tf * tf) * s


# ---------------------------------------------------------------------------
# sigma schedule


def karras_sigma(k: int, spec: DiffusionSpec) -> float:
    """The k-th grid sigma, decreasing from sigma_max at k=0 to sigma_min."""
    if not 0 <= k <= spec.K - 1:
        raise ValueError(f"schedule index {k} outside [0, {spec.K - 1}]")
    inv = 1.0 / spec.rho
    lo, hi = spec.sigma_min**inv, spec.sigma_max**inv
    return float((hi + (k / (spec.K - 1)) * (lo - hi)) ** spec.rho)


def karras_grid(spec: DiffusionSpec) -> np.ndarray:
    """All K schedule sigmas, index 0 (= sigma_max) first."""
    inv = 1.0 / spec.rho
    lo, hi = spec.sigma_min**inv, spec.sigma_max**inv
    k = np.arange(spec.K, dtype=np.float64)
    return (hi + (k / (spec.K - 1)) * (lo - hi)) ** spec.rho


# ---------------------------------------------------------------------------
# time sampling


def sample_times(dist: TimeDistribution, spec: DiffusionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vector of n positive draws from the tagged distribution."""
    if dist.kind == "log-normal":
        return np.exp(dist.p_mean + dist.p_std * rng.standard_normal(n))
    if dist.kind == "karr-uniform":
        if dist.k_max > spec.K - 1:
            raise ValueError(f"k_max {dist.k_max} exceeds schedule size {spec.K}")
        grid = karras_grid(spec)
        return grid[rng.integers(0, dist.k_max + 1, size=n)]
    return np.asarray(dist.values)[rng.integers(0, len(dist.values), size=n)]


# ---------------------------------------------------------------------------
# weightings


def _sid_weight_from_norms(C: float, t, l1: np.ndarray):
    t4 = np.asarray(t, dtype=np.float64) ** 4
    raw = np.where(l1 > 0, C * t4 / np.where(l1 > 0, l1, 1.0), SID_WEIGHT_CAP)
    if np.any(l1 == 0):
        warnings.warn("sid weighting hit a zero residual; weight clamped", RuntimeWarning)
    return np.minimum(raw, SID_WEIGHT_CAP)


def weight_batch(fn: WeightingFn, t, x0=None, denoised=None) -> np.ndarray:
    """Per-row weights for a batch; t scalar or one value per row.

    The sid denominator is computed from raw values (never tensors), so no
    gradient flows through the weight.
    """
    if fn.kind == "one":
        n = len(x0.data if isinstance(x0, Tensor) else x0) if x0 is not None else np.asarray(t).size
        return np.ones(max(n, np.asarray(t).size))
    if np.any(np.asarray(t) <= 0):
        raise ValueError(f"time must be positive, got {t!r}")
    if fn.kind == "edm":
        sd = fn.sigma_data
        tt = np.asarray(t, dtype=np.float64)
        return np.broadcast_to((tt * tt + sd * sd) / (tt * sd) ** 2, np.atleast_1d(tt).shape).copy()
    if x0 is None or denoised is None:
        raise ValueError("sid weighting requires x0 and denoised")
    x0a = x0.data if isinstance(x0, Tensor) else np.asarray(x0, dtype=np.float64)
    da = denoised.data if isinstance(denoised, Tensor) else np.asarray(denoised, dtype=np.float64)
    C = fn.C if fn.C is not None else float(x0a.shape[-1])
    l1 = np.abs(x0a - da).sum(axis=-1)
    return _sid_weight_from_norms(C, np.asarray(t, dtype=np.float64), l1)
