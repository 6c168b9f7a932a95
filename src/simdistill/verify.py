"""Statistical verification of the two mathematical pillars behind the
training loss, plus a finite-difference battery over every differentiable
primitive.

- score projection: for any test function u, the diffused marginal score is
  the conditional mean of the transition score, so
  E[u(x_t) ⊙ (s_p(x_t) − cond_score(x0, x_t, t))] = 0 coordinate-wise.
- gradient identity: the gradient of the integrated score divergence over the
  generator parameters equals the gradient of the tractable matching loss in
  which the score fields are frozen functions. The left side is realized as
  common-random-number central differences of the divergence quadrature over
  the flattened (A, b); the right side as the autodiff gradient.
- gradcheck: central finite differences against every autodiff primitive and
  every distance tag, with an injectable case registry so a corrupted
  derivative can be planted as a negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .diffusion import DiffusionSpec, TimeDistribution, WeightingFn, cond_score
from .distances import DistanceFn, derivative as dist_derivative, value as dist_value
from .distill import LinearTensorGenerator, graph_field, sim_generator_loss
from .nnkit import MlpNet, Tensor, backward
from .nnkit import tensor as T
from .oracles import (
    GaussianSpec,
    GmmSpec,
    LinearGenerator,
    divergence_value,  # unused here; kept because perfbench's --trace 1 wraps verify.divergence_value
    divergence_values,
    gaussian_score_graph,
    linear_gen_score_graph,
    marginal_score,
    sample_clean,
)
from .rng import make_rng, named_streams

U_TAGS = ("identity", "ones", "net")


@dataclass
class VerificationReport:
    """Outcome of one statistical or deterministic check.

    ``verdict`` is "pass", "fail", or "inconclusive" (noise dominated the
    signal). With a ``tolerance`` set the rule is deterministic:
    |estimate − target| ≤ tolerance. Otherwise a per-coordinate rule at the
    two-sided level 2Φ(−3) ≈ 2.7e-3 applies: score projection uses the
    normal 3·SE bound (its SE comes from ≥ 1000 samples), the gradient
    identity a Student-t quantile at that level, because its SE comes from a
    handful of replicates. ``se`` holds the combined standard errors and
    ``detail`` names the multiplier used.
    """

    name: str
    verdict: str
    estimate: list
    target: list
    se: list
    n_mc: int
    seed: int
    tolerance: float | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "estimate": self.estimate,
            "target": self.target,
            "se": self.se,
            "n_mc": self.n_mc,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }

    def summary_line(self) -> str:
        return f"[{self.verdict.upper():12s}] {self.name}: {self.detail}"


def _three_sigma_verdict(est: np.ndarray, se: np.ndarray) -> str:
    return "pass" if np.all(np.abs(est) <= 3.0 * se) else "fail"


# two-sided false-alarm level of a normal 3·SE gate, 2Φ(−3) ≈ 2.7e-3
GATE_LEVEL = 2.0 * special.ndtr(-3.0)


def _welch_t_multiplier(var_a: np.ndarray, var_b: np.ndarray, replicates: int) -> np.ndarray:
    """Per-coordinate t quantile at the two-sided level ``GATE_LEVEL``.

    ``var_a``/``var_b`` are the squared standard errors of two independent
    means of ``replicates`` draws each. Their difference over
    √(var_a + var_b) is Student-t with Welch–Satterthwaite degrees of freedom
    ν = (var_a + var_b)²·(r − 1) / (var_a² + var_b²) ∈ [r − 1, 2(r − 1)];
    ν = r − 1 where both variances vanish. −stdtrit(ν, α) is the expression
    ``scipy.stats.t.isf(α, ν)`` evaluates, without importing ``scipy.stats``.
    """
    df = float(replicates - 1)
    num = np.square(var_a + var_b) * df
    den = np.square(var_a) + np.square(var_b)
    nu = np.divide(num, den, out=np.full_like(num, df), where=den > 0)
    return -special.stdtrit(nu, GATE_LEVEL / 2)


def _identity_verdict(gap: np.ndarray, gate: np.ndarray, signal: float, noise: float) -> str:
    """Classify a per-coordinate gap-vs-gate comparison.

    A miss is reported as "inconclusive" rather than "fail" when the noise
    floor dominates the gradient signal — agreement could not have been
    resolved either way.
    """
    if np.all(gap <= gate):
        return "pass"
    if noise > signal / 2:
        return "inconclusive"
    return "fail"


# ---------------------------------------------------------------------------
# score projection


def _test_function(u: str, dim: int, seed: int):
    if u == "identity":
        return lambda x: x
    if u == "ones":
        return lambda x: np.ones_like(x)
    if u == "net":
        return MlpNet([dim, 32, dim], conditioning="raw", seed=seed).predict
    raise ValueError(f"unknown test-function tag {u!r}; expected one of {U_TAGS}")


def check_score_projection(
    p,
    u: str = "identity",
    t: float = 1.0,
    n_mc: int = 1_000_000,
    seed: int = 0,
    block: int = 65_536,
) -> VerificationReport:
    """Monte-Carlo check that E[u(x_t) ⊙ (s_p(x_t) − cond_score)] = 0.

    ``p`` must have an analytic diffused score (Gaussian, mixture, or linear
    push-forward). Estimates and standard errors are per coordinate; the
    check passes when every coordinate sits within 3 standard errors of zero.
    """
    if n_mc < 1_000:
        raise ValueError(f"n_mc below 1000 makes the standard error meaningless, got {n_mc}")
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    dim = p.dim if hasattr(p, "dim") else p.mean.shape[0]
    u_fn = _test_function(u, dim, seed)
    rng = make_rng(seed)
    total = np.zeros(dim)
    total_sq = np.zeros(dim)
    done = 0
    while done < n_mc:
        m = min(block, n_mc - done)
        x0 = sample_clean(p, rng, m)
        eps = rng.standard_normal(x0.shape)
        x_t = x0 + t * eps
        delta = marginal_score(p, x_t, t) - cond_score(x0, x_t, t)
        vals = u_fn(x_t) * delta
        total += vals.sum(axis=0)
        total_sq += np.square(vals).sum(axis=0)
        done += m
    mean = total / n_mc
    var = (total_sq / n_mc - mean**2) * n_mc / (n_mc - 1)
    se = np.sqrt(var / n_mc)
    verdict = _three_sigma_verdict(mean, se)
    z = np.abs(mean) / np.maximum(se, 1e-300)
    return VerificationReport(
        name=f"score-projection[u={u}, t={t}]",
        verdict=verdict,
        estimate=mean.tolist(),
        target=[0.0] * dim,
        se=se.tolist(),
        n_mc=n_mc,
        seed=seed,
        detail=f"max |z| = {z.max():.2f} over {dim} coordinates, n={n_mc}",
    )


# ---------------------------------------------------------------------------
# gradient identity


def _scalar_t(t) -> float:
    arr = np.asarray(t, dtype=np.float64)
    if arr.ndim == 0:
        return float(arr)
    if np.all(arr == arr.flat[0]):
        return float(arr.flat[0])
    raise ValueError("this analytic field supports one time level per call")


def _frozen_score_field(family):
    """Analytic marginal score as a frozen graph callable f(x_t, t)."""
    if isinstance(family, LinearGenerator):
        return lambda x, t: linear_gen_score_graph(family, x, _scalar_t(t))
    if isinstance(family, GaussianSpec):
        return lambda x, t: gaussian_score_graph(family, x, _scalar_t(t))
    if isinstance(family, GmmSpec):
        return graph_field(family, "score")
    raise TypeError(f"no analytic score field for {type(family).__name__}")


def check_theorem1(
    p: LinearGenerator,
    q,
    d: DistanceFn,
    time_grid,
    n_mc: int = 4096,
    fd_step: float = 1e-4,
    seed: int = 0,
    replicates: int = 8,
    weighting: WeightingFn | None = None,
    fd_bias_scale: float = 100.0,
) -> VerificationReport:
    """Compare the divergence gradient against the matching-loss gradient.

    The divergence being differentiated keeps its sampling measure frozen at
    the base parameters (stop-gradient on the sampler); only the score field
    moves with θ. Left side: central finite differences of the divergence
    quadrature over the flattened (A, b) with the sampling measure pinned to
    the base generator. All 2·n_par perturbed evaluations of a replicate come
    from one ``divergence_values`` call, so they share one set of draws and
    one teacher score per grid node (common random numbers). Right side: the
    autodiff gradient of the generator matching loss with the score fields
    frozen at the base parameters (θ flows only through the sampling path
    there — the two sides move complementary halves, which is the content of
    the identity). Both sides are replicated with independent streams to
    estimate standard errors; a coordinate passes when the estimates agree
    within k combined standard errors plus an O(fd_step²) bias allowance.

    Both standard errors are estimated from ``replicates`` draws, so the
    gap over the combined SE is Student-t with Welch–Satterthwaite degrees
    of freedom, not normal. k is that t distribution's quantile at the
    two-sided level 2Φ(−3), computed per coordinate (3.85 at ν = 11, 3.38
    at ν = 22): a true identity then misses a coordinate with probability
    2.7e-3, the rate a 3·SE gate stands for, and fails a report over a
    6-parameter generator with probability at most 1.6% (union bound).
    When disagreement coincides with noise dominating the gradient signal,
    the verdict is "inconclusive" rather than "fail".
    """
    if not 1e-5 <= fd_step <= 1e-3:
        raise ValueError(f"fd_step must lie in [1e-5, 1e-3], got {fd_step}")
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates for a standard error, got {replicates}")
    w = weighting or WeightingFn.one()
    grid = np.asarray(time_grid, dtype=np.float64).ravel()
    dspec = DiffusionSpec()
    theta0 = p.flat()
    n_par = theta0.size
    dim, latent = p.dim, p.latent_dim
    streams = named_streams(seed, ["fd", "autodiff"])
    fd_seeds = streams["fd"].integers(2**31, size=replicates)
    ad_seeds = streams["autodiff"].integers(2**31, size=replicates)

    online = _frozen_score_field(p)
    teacher = _frozen_score_field(q)

    rhs = np.zeros((replicates, n_par))
    for r in range(replicates):
        rng = make_rng(int(ad_seeds[r]))
        acc = np.zeros(n_par)
        for t in grid:
            gen = LinearTensorGenerator(p.A, p.b)
            loss = sim_generator_loss(
                gen, online, teacher, d, dspec,
                TimeDistribution.fixed_grid((float(t),)), w, n_mc, rng, loss_form="score",
            )
            acc += gen.flat_grads(backward(loss, gen.parameters()))
        rhs[r] = acc / grid.size

    frozen_sampler = LinearGenerator(p.A, p.b)
    perturbed = []  # θ0 + e_i, θ0 − e_i for each coordinate i
    for e in fd_step * np.eye(n_par):
        perturbed += [LinearGenerator.from_flat(th, dim, latent) for th in (theta0 + e, theta0 - e)]
    lhs = np.zeros((replicates, n_par))
    for r in range(replicates):
        est = divergence_values(perturbed, q, d, w, grid, n_mc, make_rng(int(fd_seeds[r])), frozen_sampler)
        values = np.array([x.value for x in est])
        lhs[r] = (values[0::2] - values[1::2]) / (2 * fd_step)

    lhs_mean, rhs_mean = lhs.mean(axis=0), rhs.mean(axis=0)
    lhs_se = lhs.std(axis=0, ddof=1) / np.sqrt(replicates)
    rhs_se = rhs.std(axis=0, ddof=1) / np.sqrt(replicates)
    se_comb = np.sqrt(lhs_se**2 + rhs_se**2)
    k = _welch_t_multiplier(lhs_se**2, rhs_se**2, replicates)
    gap = np.abs(lhs_mean - rhs_mean)
    allowance = fd_bias_scale * fd_step**2 + 1e-9
    signal = np.linalg.norm(rhs_mean)
    noise = float(np.sqrt(np.mean(se_comb**2)))
    verdict = _identity_verdict(gap, k * se_comb + allowance, signal, noise)
    worst = int(np.argmax(gap - k * se_comb))
    return VerificationReport(
        name=f"gradient-identity[d={d.tag}]",
        verdict=verdict,
        estimate=lhs_mean.tolist(),
        target=rhs_mean.tolist(),
        se=se_comb.tolist(),
        n_mc=n_mc,
        seed=seed,
        tolerance=None,
        detail=(
            f"worst coordinate {worst}: gap {gap[worst]:.3e} vs {k[worst]:.2f}·SE+bias "
            f"{k[worst] * se_comb[worst] + allowance:.3e} (t quantile at 2Φ(−3)); "
            f"‖autodiff grad‖ = {signal:.3e}, "
            f"fd_step = {fd_step:g}, {replicates}×{n_mc} samples/node"
        ),
    )


# ---------------------------------------------------------------------------
# gradcheck battery


REL_TOL = 1e-6
_FLOOR = 1e-4


def _probe_case(fn, arrays, rng, h=1e-6) -> float:
    """Max rel. error between autodiff and central FD for one probe."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    w = np.linspace(0.5, 1.5, out.data.size).reshape(out.data.shape)
    loss = (out * w).sum()
    grads = backward(loss, tensors)

    def scalarize(arrs):
        consts = [Tensor(a) for a in arrs]
        return float((fn(*consts).data * w).sum())

    worst = 0.0
    for k, a in enumerate(arrays):
        fd = np.zeros_like(a)
        for i in range(a.size):
            bumped = [x.copy() for x in arrays]
            bumped[k].flat[i] += h
            up = scalarize(bumped)
            bumped[k].flat[i] -= 2 * h
            dn = scalarize(bumped)
            fd.flat[i] = (up - dn) / (2 * h)
        scale = max(np.abs(fd).max(), _FLOOR)
        worst = max(worst, float(np.abs(grads[k] - fd).max() / scale))
    return worst


def _std(rng, *shape):
    return rng.standard_normal(shape)


def _pos(rng, *shape):
    return np.abs(rng.standard_normal(shape)) + 0.5


def _away_from_zero(rng, *shape):
    a = rng.standard_normal(shape)
    return a + np.sign(a) * 0.1


def default_gradcheck_cases() -> dict:
    """name -> (fn over Tensors, input samplers). Samplers avoid kinks."""
    cases = {
        "add": (lambda a, b: a + b, [lambda r: _std(r, 3, 4), lambda r: _std(r, 3, 4)]),
        "sub": (lambda a, b: a - b, [lambda r: _std(r, 3, 4), lambda r: _std(r, 4)]),
        "mul": (lambda a, b: a * b, [lambda r: _std(r, 3, 4), lambda r: _std(r, 3, 4)]),
        "div": (lambda a, b: a / b, [lambda r: _std(r, 3, 4), lambda r: _pos(r, 3, 4)]),
        "neg": (lambda a: -a, [lambda r: _std(r, 3, 4)]),
        "matmul": (T.matmul, [lambda r: _std(r, 3, 4), lambda r: _std(r, 4, 2)]),
        "square": (T.square, [lambda r: _std(r, 3, 4)]),
        "sqrt": (T.sqrt, [lambda r: _pos(r, 3, 4)]),
        "exp": (T.exp, [lambda r: _std(r, 3, 4)]),
        "log": (T.log, [lambda r: _pos(r, 3, 4)]),
        "powi4": (lambda a: T.powi(a, 4), [lambda r: _std(r, 3, 4)]),
        "relu": (T.relu, [lambda r: _away_from_zero(r, 3, 4)]),
        "silu": (T.silu, [lambda r: _std(r, 3, 4)]),
        "tanh": (T.tanh, [lambda r: _std(r, 3, 4)]),
        "absolute": (T.absolute, [lambda r: _away_from_zero(r, 3, 4)]),
        "clip": (
            lambda a: T.clip(a, -1.0, 1.0),
            [lambda r: _away_from_zero(r, 3, 4) * 2],
        ),
        "sum-axis": (lambda a: T.tsum(a, axis=0), [lambda r: _std(r, 3, 4)]),
        "mean-axis": (lambda a: T.tmean(a, axis=1), [lambda r: _std(r, 3, 4)]),
        "reshape": (lambda a: a.reshape((4, 3)), [lambda r: _std(r, 3, 4)]),
        "concat": (
            lambda a, b: T.concat([a, b], axis=1),
            [lambda r: _std(r, 3, 2), lambda r: _std(r, 3, 4)],
        ),
        "broadcast-add": (lambda a, b: a + b, [lambda r: _std(r, 3, 4), lambda r: _std(r, 1, 4)]),
    }
    for tag, d in {
        "l2": DistanceFn.l2(),
        "power4": DistanceFn.power(4),
        "exp_power": DistanceFn.exp_power(2, 0.5),
        "l1": DistanceFn.l1(),
        "huber": DistanceFn.huber(1.0),
        "pseudo_huber": DistanceFn.pseudo_huber(0.5),
    }.items():
        sampler = (lambda r: _away_from_zero(r, 4, 3)) if tag in ("l1", "huber") else (
            lambda r: _std(r, 4, 3)
        )
        cases[f"distance-{tag}"] = (
            (lambda dd: lambda y: dist_value(dd, y))(d),
            [sampler],
        )
    return cases


def gradcheck_suite(seed: int = 0, probes: int = 100, cases: dict | None = None) -> list[VerificationReport]:
    """FD-vs-autodiff over every primitive and distance tag.

    ``cases`` overrides the registry (used to plant corrupted derivatives as
    a negative control). One report per case; estimate is the max relative
    error across probes against the deterministic tolerance.
    """
    cases = default_gradcheck_cases() if cases is None else cases
    reports = []
    for name, (fn, samplers) in cases.items():
        rng = make_rng(seed)
        worst = 0.0
        for _ in range(probes):
            arrays = [s(rng) for s in samplers]
            worst = max(worst, _probe_case(fn, arrays, rng))
        reports.append(
            VerificationReport(
                name=f"gradcheck-{name}",
                verdict="pass" if worst <= REL_TOL else "fail",
                estimate=[worst],
                target=[0.0],
                se=[0.0],
                n_mc=probes,
                seed=seed,
                tolerance=REL_TOL,
                detail=f"max rel err {worst:.3e} over {probes} probes (tol {REL_TOL:g})",
            )
        )
    # subgradient conventions at the kinks: d'(0) must be exactly 0
    zero_ok = True
    offenders = []
    for tag, d in [
        ("l2", DistanceFn.l2()),
        ("power4", DistanceFn.power(4)),
        ("exp_power", DistanceFn.exp_power(2, 0.5)),
        ("l1", DistanceFn.l1()),
        ("huber", DistanceFn.huber(1.0)),
        ("pseudo_huber", DistanceFn.pseudo_huber(0.5)),
    ]:
        g = dist_derivative(d, np.zeros(3))
        if not np.array_equal(g, np.zeros(3)):
            zero_ok = False
            offenders.append(tag)
    reports.append(
        VerificationReport(
            name="gradcheck-zero-subgradient",
            verdict="pass" if zero_ok else "fail",
            estimate=[0.0 if zero_ok else 1.0],
            target=[0.0],
            se=[0.0],
            n_mc=1,
            seed=seed,
            tolerance=0.0,
            detail="d'(0) = 0 for every tag" if zero_ok else f"nonzero at 0: {offenders}",
        )
    )
    return reports
