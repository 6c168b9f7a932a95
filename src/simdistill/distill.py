"""Two-phase distillation of a score-based teacher into a one-step generator.

The loop alternates two updates:

- phase 1 (``ratio`` times): denoising score matching fits the online
  denoiser d_φ to the *generator's* current distribution, on detached
  generator samples;
- phase 2 (once): the generator takes one step on the score-implicit-matching
  loss, whose gradient equals the gradient of the integrated score divergence
  between generator and teacher.

Per-sample phase-2 loss, denoiser form (the default):

    -w̃(t) · d'(d_φ(x_t,t) − d_q(x_t,t))ᵀ (d_φ(x_t,t) − x0)

and score form:

    -w(t) · d'(s_φ(x_t,t) − s_q(x_t,t))ᵀ (s_φ(x_t,t) − cond_score(x0,x_t,t))

with x0 = g_θ(z), x_t = x0 + t·ε, and both field arguments frozen in their
parameters. The gradient flows through x0 and x_t into every factor; a config
flag can detach the d'(·) factor to mimic implementations that treat it as a
constant coefficient.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .diffusion import (
    DiffusionSpec,
    TimeDistribution,
    WeightingFn,
    cond_score,
    perturb,
    sample_times,
    weight_batch,
)
from .distances import DistanceFn, default_pseudo_huber_c, derivative as dist_derivative
from .metrics import MetricRow, gaussian_w2, mmd_rbf, mode_coverage
from .nnkit import Adam, MlpNet, backward
from .nnkit import tensor as T
from .nnkit.tensor import Tensor
from .oracles import (
    GaussianSpec,
    GmmSpec,
    gmm_denoiser_graph,
    gmm_score_graph,
    sample_clean,
)
from .rng import named_streams


class DivergenceHalt(RuntimeError):
    """Raised when the generator loss leaves the trustable range."""

    def __init__(self, step: int, loss: float, threshold: float):
        self.step = step
        self.loss = loss
        super().__init__(
            f"generator loss {loss!r} at step {step} exceeded the divergence "
            f"threshold {threshold:g}; run halted"
        )


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class GeneratorSpec:
    """One-step generator family.

    ``mlp``: plain network z -> x with z ~ N(0, I_latent); ``widths`` is the
    full width list (latent in, data out) and defaults to (latent, 64, 64, ·).
    ``denoiser-as-generator``: a time-conditioned denoiser evaluated at the
    fixed level t*, fed z ~ N(0, t*² I); the natural student when the teacher
    is itself a denoiser.
    """

    tag: str = "mlp"
    latent_dim: int = 2
    widths: tuple[int, ...] = ()
    t_star: float = 2.5
    activation: str = "silu"
    conditioning: str = "concat-log-t"

    def __post_init__(self):
        if self.tag not in ("mlp", "denoiser-as-generator"):
            raise ValueError(f"unknown generator tag {self.tag!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.tag == "denoiser-as-generator" and self.t_star <= 0:
            raise ValueError(f"t_star must be positive, got {self.t_star}")


class MlpGenerator:
    def __init__(self, widths: tuple[int, ...], activation: str, seed: int):
        self.latent_dim = widths[0]
        self.data_dim = widths[-1]
        self.net = MlpNet(list(widths), activation=activation, conditioning="raw", seed=seed)

    def named_parameters(self):
        return self.net.named_parameters()

    def parameters(self):
        return self.net.parameters()

    def sample_latent(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, self.latent_dim))

    def forward(self, z: np.ndarray) -> Tensor:
        return self.net(z)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.net.predict(self.sample_latent(rng, n))


class DenoiserGenerator:
    """Denoiser network reused as a one-step generator: g(z) = d(z, t*)."""

    def __init__(self, widths: tuple[int, ...], t_star: float, activation: str, conditioning: str, seed: int):
        self.latent_dim = widths[0]
        self.data_dim = widths[-1]
        self.t_star = float(t_star)
        self.net = MlpNet(list(widths), activation=activation, conditioning=conditioning, seed=seed)

    def named_parameters(self):
        return self.net.named_parameters()

    def parameters(self):
        return self.net.parameters()

    def sample_latent(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.t_star * rng.standard_normal((n, self.latent_dim))

    def forward(self, z: np.ndarray) -> Tensor:
        return self.net(z, self.t_star)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.net.predict(self.sample_latent(rng, n), self.t_star)


class LinearTensorGenerator:
    """Differentiable x = A z + b; the analytically checkable generator.

    Parameters are stored as W = Aᵀ (latent, data) plus b, and flatten in the
    order (A.ravel(), b) so finite differences over a flat θ line up with the
    autodiff gradients.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.atleast_2d(np.asarray(A, dtype=np.float64))
        b = np.atleast_1d(np.asarray(b, dtype=np.float64))
        self.latent_dim = A.shape[1]
        self.data_dim = A.shape[0]
        self.W = Tensor(A.T.copy(), requires_grad=True)
        self.b = Tensor(b.copy(), requires_grad=True)

    def named_parameters(self):
        return [("W", self.W), ("b", self.b)]

    def parameters(self):
        return [self.W, self.b]

    def sample_latent(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, self.latent_dim))

    def forward(self, z: np.ndarray) -> Tensor:
        return T.dense(Tensor(z), self.W, self.b)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.sample_latent(rng, n) @ self.W.data + self.b.data

    def flat_theta(self) -> np.ndarray:
        return np.concatenate([self.W.data.T.ravel(), self.b.data])

    def flat_grads(self, grads: list[np.ndarray]) -> np.ndarray:
        gw, gb = grads
        return np.concatenate([gw.T.ravel(), gb])


def build_generator(gspec: GeneratorSpec, data_dim: int, dspec: DiffusionSpec, seed: int):
    if gspec.tag == "mlp":
        widths = gspec.widths or (gspec.latent_dim, 64, 64, data_dim)
        if widths[0] != gspec.latent_dim or widths[-1] != data_dim:
            raise ValueError(
                f"generator widths {widths} must run latent dim {gspec.latent_dim} "
                f"to data dim {data_dim}"
            )
        return MlpGenerator(widths, gspec.activation, seed)
    widths = gspec.widths or (data_dim, 64, 64, data_dim)
    if widths[0] != data_dim or widths[-1] != data_dim:
        raise ValueError(f"denoiser-as-generator widths {widths} must run data dim to data dim")
    if not (dspec.sigma_min <= gspec.t_star <= dspec.sigma_max):
        raise ValueError(
            f"t_star {gspec.t_star} outside the schedule range [{dspec.sigma_min}, {dspec.sigma_max}]"
        )
    return DenoiserGenerator(widths, gspec.t_star, gspec.activation, gspec.conditioning, seed)


# ---------------------------------------------------------------------------
# field adapters: everything downstream consumes callables f(x_t, t) -> Tensor


def graph_field(obj, form: str):
    """Wrap a teacher/net as a frozen graph callable f(x_t, t).

    ``form`` is the loss form: "denoiser" asks for the posterior denoiser,
    "score" for the marginal score. A net is taken to compute that field
    already; an analytic teacher supplies it from its closed form.
    """
    if form not in ("denoiser", "score"):
        raise ValueError(f"unknown loss form {form!r}")
    if isinstance(obj, MlpNet):
        return obj.detached()
    if isinstance(obj, GaussianSpec):
        obj = _as_isotropic_gmm(obj)
    if isinstance(obj, GmmSpec):
        oracle = gmm_denoiser_graph if form == "denoiser" else gmm_score_graph
        return lambda x, t: oracle(obj, x, t)
    raise TypeError(f"cannot build a {form} field from {type(obj).__name__}")


class PreconditionedDenoiser:
    """Denoiser head d(x, t) = c_skip·x + c_out·net(c_in·x, t).

    The coefficients c_skip = σ_d²/(σ_d²+t²), c_out = σ_d·t/√(σ_d²+t²) and
    c_in = 1/√(σ_d²+t²) keep the network's inputs, outputs and regression
    target at unit scale across all noise levels, so one learning rate fits
    the whole schedule. At t → 0 the head reduces to the identity; at large t
    the skip fades and the network output dominates.
    """

    def __init__(self, net: MlpNet, sigma_data: float = 0.5):
        if sigma_data <= 0:
            raise ValueError(f"sigma_data must be positive, got {sigma_data}")
        self.net = net
        self.sigma_data = float(sigma_data)

    def __call__(self, x, t) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        tv = np.broadcast_to(np.asarray(t, dtype=np.float64).reshape(-1, 1), (x.shape[0], 1))
        var = self.sigma_data**2 + tv**2
        c_skip = self.sigma_data**2 / var
        c_out = self.sigma_data * tv / np.sqrt(var)
        c_in = 1.0 / np.sqrt(var)
        return x * c_skip + self.net(x * c_in, t) * c_out

    def named_parameters(self):
        return self.net.named_parameters()

    def parameters(self):
        return self.net.parameters()


def _as_isotropic_gmm(spec: GaussianSpec) -> GmmSpec:
    diag = np.diag(spec.cov)
    if not np.allclose(spec.cov, np.diag(diag)) or not np.allclose(diag, diag[0]):
        raise ValueError("per-sample-time fields need an isotropic Gaussian; use a GMM or net teacher")
    return GmmSpec(np.array([1.0]), spec.mean[None, :], np.sqrt(diag[0]))


# ---------------------------------------------------------------------------
# losses


def _finite_or_raise(loss: Tensor, what: str, t: np.ndarray):
    if not np.isfinite(loss.data):
        raise FloatingPointError(
            f"{what} went non-finite (value {loss.data!r}); time draws in "
            f"[{t.min():.3g}, {t.max():.3g}]"
        )


def dsm_loss(
    net,
    x0_batch: np.ndarray,
    spec: DiffusionSpec,
    time_dist: TimeDistribution,
    weighting: WeightingFn,
    rng: np.random.Generator,
    net_form: str = "denoiser",
) -> Tensor:
    """Denoising score matching on one batch, one (t, ε) draw per element.

    In denoiser form the regression target is the clean sample; in score form
    it is the conditional score of the forward transition. ``x0_batch`` must
    be detached data (phase 1 treats the generator as frozen).
    """
    x0 = x0_batch.data if isinstance(x0_batch, Tensor) else np.asarray(x0_batch, dtype=np.float64)
    n = x0.shape[0]
    t = sample_times(time_dist, spec, rng, n)
    eps = rng.standard_normal(x0.shape)
    x_t = x0 + t[:, None] * eps
    pred = net(x_t, t)
    if net_form == "denoiser":
        resid = pred - x0
    elif net_form == "score":
        resid = pred - cond_score(x0, x_t, t)
    else:
        raise ValueError(f"unknown net form {net_form!r}")
    lam = weight_batch(weighting, t, x0=x0, denoised=pred.data)
    per = T.tsum(T.square(resid), axis=1)
    loss = T.tmean(per * lam)
    _finite_or_raise(loss, "denoising score matching loss", t)
    return loss


def sim_generator_loss(
    gen,
    score_net,
    teacher_score,
    d: DistanceFn,
    spec: DiffusionSpec,
    time_dist: TimeDistribution,
    weighting: WeightingFn,
    batch: int,
    rng: np.random.Generator,
    loss_form: str = "denoiser",
    first_factor_grad: bool = True,
    info: dict | None = None,
) -> Tensor:
    """Score-implicit-matching generator loss on one batch.

    ``score_net`` and ``teacher_score`` are frozen callables ``f(x_t, t)``;
    in denoiser form they are posterior-denoiser fields, in score form
    marginal-score fields. For the pseudo-Huber distance the per-sample loss
    obeys |ℓ_i| ≤ w_i · ‖second factor_i‖ because ‖d'(y)‖ < 1; the bound is
    asserted each batch and reported through ``info``.
    """
    if loss_form not in ("denoiser", "score"):
        raise ValueError(f"unknown loss form {loss_form!r}")
    z = gen.sample_latent(rng, batch)
    x0 = gen.forward(z)
    t = sample_times(time_dist, spec, rng, batch)
    eps = rng.standard_normal(x0.shape)
    x_t = perturb(x0, t, eps)

    online = score_net(x_t, t)
    ref = teacher_score(x_t, t)
    y = online - ref
    if loss_form == "denoiser":
        factor2 = online - x0
    else:
        factor2 = online - cond_score(x0, x_t, t)
    first = dist_derivative(d, y)
    if not first_factor_grad:
        first = first.detach()
    dots = T.tsum(first * factor2, axis=1)
    w = weight_batch(weighting, t, x0=x0.data, denoised=ref.data)
    loss = -T.tmean(dots * w)
    _finite_or_raise(loss, "generator matching loss", t)

    per_sample = np.abs(w * dots.data)
    envelope = w * np.sqrt(np.square(factor2.data).sum(axis=1))
    if d.tag == "pseudo_huber" and np.any(per_sample > envelope + 1e-9):
        raise FloatingPointError("pseudo-Huber per-sample loss escaped its derivative-norm bound")
    if info is not None:
        info["per_sample_max"] = float(per_sample.max())
        info["envelope_max"] = float(envelope.max())
        info["bounded"] = bool(np.all(per_sample <= envelope + 1e-9))
        info["t_range"] = (float(t.min()), float(t.max()))
    return loss


def sid_delta_generator_loss(
    gen,
    score_net,
    teacher_score,
    spec: DiffusionSpec,
    time_dist: TimeDistribution,
    weighting: WeightingFn,
    batch: int,
    rng: np.random.Generator,
    loss_form: str = "denoiser",
) -> Tensor:
    """Hand-written delta loss: the L² instance spelled out without the
    distance plumbing. Kept as an independent implementation so the generic
    path can be checked against it gradient-for-gradient.
    """
    z = gen.sample_latent(rng, batch)
    x0 = gen.forward(z)
    t = sample_times(time_dist, spec, rng, batch)
    eps = rng.standard_normal(x0.shape)
    x_t = perturb(x0, t, eps)
    online = score_net(x_t, t)
    ref = teacher_score(x_t, t)
    delta = online - ref
    second = online - x0 if loss_form == "denoiser" else online - cond_score(x0, x_t, t)
    w = weight_batch(weighting, t, x0=x0.data, denoised=ref.data)
    dots = T.tsum(delta * second, axis=1)
    loss = -2.0 * T.tmean(dots * w)
    _finite_or_raise(loss, "delta loss", t)
    return loss


def di_generator_loss(
    gen,
    score_net,
    teacher_score,
    spec: DiffusionSpec,
    time_dist: TimeDistribution,
    weighting: WeightingFn,
    batch: int,
    rng: np.random.Generator,
    loss_form: str = "score",
) -> Tensor:
    """KL-style baseline: push the detached score difference through x_t.

    The loss value itself is meaningless; its gradient is
    E[w(t) (s_φ(x_t) − s_q(x_t))ᵀ ∂x_t/∂θ].
    """
    z = gen.sample_latent(rng, batch)
    x0 = gen.forward(z)
    t = sample_times(time_dist, spec, rng, batch)
    eps = rng.standard_normal(x0.shape)
    x_t = perturb(x0, t, eps)
    online = score_net(x_t, t)
    ref = teacher_score(x_t, t)
    if loss_form == "denoiser":
        sdiff = (online.data - ref.data) / (t[:, None] ** 2)
    else:
        sdiff = online.data - ref.data
    w = weight_batch(weighting, t, x0=x0.data, denoised=ref.data)
    dots = T.tsum(x_t * sdiff, axis=1)
    loss = T.tmean(dots * w)
    _finite_or_raise(loss, "baseline generator loss", t)
    return loss


# ---------------------------------------------------------------------------
# the two-phase loop


@dataclass(frozen=True)
class DistillConfig:
    """Everything the two-phase loop needs; defaults are the image-scale
    recipe, the desk presets override lr/batch for 2-D work."""

    gen_steps: int
    score_lr: float = 1e-5
    gen_lr: float = 1e-5
    gen_lr_decay: str = "none"  # none | cosine (anneal to 1% of gen_lr over the run)
    batch_size: int = 256
    ratio: int = 2
    distance: DistanceFn = field(default_factory=lambda: DistanceFn.pseudo_huber(default_pseudo_huber_c(2)))
    score_time_dist: TimeDistribution = field(default_factory=lambda: TimeDistribution.log_normal(-1.2, 1.2))
    gen_time_dist: TimeDistribution = field(default_factory=lambda: TimeDistribution.log_normal(-3.5, 2.5))
    score_weighting: WeightingFn = field(default_factory=WeightingFn.edm)
    gen_weighting: WeightingFn = field(default_factory=WeightingFn.one)
    loss_form: str = "denoiser"
    first_factor_grad: bool = True
    baseline: str = "sim"  # sim | di
    score_hidden: tuple[int, ...] = (64, 64)
    activation: str = "silu"
    conditioning: str = "concat-log-t"
    eval_interval: int = 1000
    eval_samples: int = 2048
    final_eval_samples: int = 10000
    record_wall_time: bool = False
    divergence_threshold: float = 1e6

    def __post_init__(self):
        if self.gen_steps < 0:
            raise ValueError(f"gen_steps must be ≥ 0, got {self.gen_steps}")
        if self.ratio < 1:
            raise ValueError(f"score-updates-per-generator-update ratio must be ≥ 1, got {self.ratio}")
        if self.score_lr <= 0 or self.gen_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.gen_lr_decay not in ("none", "cosine"):
            raise ValueError(f"unknown generator lr decay {self.gen_lr_decay!r}")
        if self.batch_size < 2:
            raise ValueError(f"batch size must be ≥ 2, got {self.batch_size}")
        if self.loss_form not in ("denoiser", "score"):
            raise ValueError(f"unknown loss form {self.loss_form!r}")
        if self.baseline not in ("sim", "di"):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        object.__setattr__(self, "score_hidden", tuple(int(w) for w in self.score_hidden))


@dataclass
class DistillResult:
    generator: object
    online_net: MlpNet
    rows: list[MetricRow]
    final_samples: np.ndarray
    final_mmd: float
    final_coverage: float
    mode_counts: np.ndarray | None
    seed: int


def _params_digest(params) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for p in params:
        h.update(np.ascontiguousarray(p.data))  # hashes the buffer in place; copies only a strided view
    return h.digest()


_STREAM_NAMES = ["gen_init", "score_init", "train", "eval", "final_eval"]


def initial_generator(
    data_dim: int,
    seed: int,
    gspec: GeneratorSpec | None = None,
    dspec: DiffusionSpec | None = None,
):
    """The generator exactly as ``run_distillation(seed=seed)`` initializes it.

    Lets a caller snapshot or sample the pre-training generator without
    consuming any of the run's own rng streams.
    """
    dspec = dspec or DiffusionSpec()
    gspec = gspec or GeneratorSpec()
    streams = named_streams(seed, _STREAM_NAMES)
    return build_generator(gspec, data_dim, dspec, seed=int(streams["gen_init"].integers(2**31)))


def run_distillation(
    cfg: DistillConfig,
    teacher,
    reference,
    seed: int,
    gspec: GeneratorSpec | None = None,
    dspec: DiffusionSpec | None = None,
    step_callback=None,
    row_callback=None,
    gen_init_state: dict | None = None,
) -> DistillResult:
    """Run the full two-phase loop; deterministic given the seed.

    Args:
        teacher: frozen teacher — an analytic family (GmmSpec / isotropic
            GaussianSpec) or a trained denoiser net.
        reference: what evaluation samples are compared against — an analytic
            family or an (n, d) array of data points.
        seed: master seed; internal streams (init, training, eval) are split
            from it, so changing the eval cadence never touches training draws.
        step_callback: optional ``f(step, phase1_loss, phase2_loss)`` hook.
        row_callback: optional ``f(MetricRow)`` hook, fired as each
            evaluation row is produced (lets a caller stream a CSV).
        gen_init_state: optional parameter state dict to warm-start the
            generator network from (shapes must match the built generator).

    Raises:
        DivergenceHalt: when |generator loss| exceeds the configured
            threshold or goes non-finite.
    """
    dspec = dspec or DiffusionSpec()
    gspec = gspec or GeneratorSpec()
    if isinstance(reference, np.ndarray):
        data_dim = reference.shape[1]
    else:
        data_dim = reference.dim
    streams = named_streams(seed, _STREAM_NAMES)

    gen = build_generator(gspec, data_dim, dspec, seed=int(streams["gen_init"].integers(2**31)))
    if gen_init_state is not None:
        gen.net.load_state_dict(gen_init_state)
    in_dim = data_dim
    online = MlpNet(
        [in_dim, *cfg.score_hidden, data_dim],
        activation=cfg.activation,
        conditioning=cfg.conditioning,
        zero_final=True,
        seed=int(streams["score_init"].integers(2**31)),
    )
    if isinstance(teacher, MlpNet) and teacher.widths == online.widths:
        online.load_state_dict(teacher.state_dict())  # warm start from the teacher

    teacher_field = graph_field(teacher, cfg.loss_form)
    online_field = online.detached()

    opt_phi = Adam(online.named_parameters(), lr=cfg.score_lr)
    opt_theta = Adam(gen.named_parameters(), lr=cfg.gen_lr)
    train_rng = streams["train"]
    eval_rng = streams["eval"]

    rows: list[MetricRow] = []
    p1_value = 0.0
    p2_value = 0.0
    t_start = time.perf_counter()

    def evaluate(step: int, n: int, rng: np.random.Generator):
        samples = gen.sample(rng, n)
        refs = _reference_samples(reference, rng, n)
        mmd = mmd_rbf(samples, refs)
        w2 = gaussian_w2(samples, refs)
        cov_frac = float("nan")
        counts = None
        if isinstance(reference, GmmSpec):
            cov_frac, counts = mode_coverage(samples, reference)
        elapsed = time.perf_counter() - t_start if cfg.record_wall_time else 0.0
        row = MetricRow(step, p1_value, p2_value, mmd, w2, cov_frac, elapsed)
        rows.append(row)
        if row_callback is not None:
            row_callback(row)
        return samples, mmd, cov_frac, counts

    for step in range(1, cfg.gen_steps + 1):
        theta_before = _params_digest(gen.parameters())
        p1_acc = 0.0
        for _ in range(cfg.ratio):
            x0 = gen.sample(train_rng, cfg.batch_size)
            loss1 = dsm_loss(online, x0, dspec, cfg.score_time_dist, cfg.score_weighting, train_rng)
            opt_phi.step(backward(loss1, online.parameters()))
            p1_acc += loss1.item()
        p1_value = p1_acc / cfg.ratio
        if _params_digest(gen.parameters()) != theta_before:
            raise AssertionError("phase 1 modified generator parameters")

        phi_before = _params_digest(online.parameters())
        if cfg.baseline == "sim":
            loss2 = sim_generator_loss(
                gen,
                online_field,
                teacher_field,
                cfg.distance,
                dspec,
                cfg.gen_time_dist,
                cfg.gen_weighting,
                cfg.batch_size,
                train_rng,
                loss_form=cfg.loss_form,
                first_factor_grad=cfg.first_factor_grad,
            )
        else:
            loss2 = di_generator_loss(
                gen,
                online_field,
                teacher_field,
                dspec,
                cfg.gen_time_dist,
                cfg.gen_weighting,
                cfg.batch_size,
                train_rng,
                loss_form=cfg.loss_form,
            )
        p2_value = loss2.item()
        if not np.isfinite(p2_value) or abs(p2_value) > cfg.divergence_threshold:
            raise DivergenceHalt(step, p2_value, cfg.divergence_threshold)
        if cfg.gen_lr_decay == "cosine":
            floor = 0.01 * cfg.gen_lr
            opt_theta.lr = floor + 0.5 * (cfg.gen_lr - floor) * (
                1.0 + np.cos(np.pi * (step - 1) / cfg.gen_steps)
            )
        opt_theta.step(backward(loss2, gen.parameters()))
        if _params_digest(online.parameters()) != phi_before:
            raise AssertionError("phase 2 modified online-net parameters")

        if step_callback is not None:
            step_callback(step, p1_value, p2_value)
        # the last step's row comes from the final evaluation below
        if cfg.eval_interval > 0 and step % cfg.eval_interval == 0 and step < cfg.gen_steps:
            evaluate(step, cfg.eval_samples, eval_rng)

    final_samples, final_mmd, final_cov, counts = evaluate(
        cfg.gen_steps, cfg.final_eval_samples, streams["final_eval"]
    )
    return DistillResult(
        generator=gen,
        online_net=online,
        rows=rows,
        final_samples=final_samples,
        final_mmd=final_mmd,
        final_coverage=final_cov,
        mode_counts=counts,
        seed=seed,
    )


def _reference_samples(reference, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(reference, np.ndarray):
        idx = rng.integers(0, len(reference), size=n)
        return reference[idx]
    return sample_clean(reference, rng, n)
