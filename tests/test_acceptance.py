"""Acceptance battery: one test per release gate, each printing a single
[PASS]/[FAIL] line with its pinned tolerance and runtime budget.

The statistical gates (score projection, gradient identity, end-to-end
distillation) use seeds and thresholds frozen ahead of time; the end-to-end
MMD threshold comes from the self-null fixture in ``data/ring8_mmd_null.json``
(two independent teacher draws, 200 replicates — regenerate with
``data/make_ring8_mmd_null.py``). Runtime budgets are asserted, so a pass
here also certifies the desk-scale performance story.
"""

import filecmp
import json
import time
from pathlib import Path

import numpy as np
import pytest

from simdistill.diffusion import DiffusionSpec, TimeDistribution, WeightingFn
from simdistill.distances import DistanceFn
from simdistill.distill import (
    MlpGenerator,
    PreconditionedDenoiser,
    dsm_loss,
    run_distillation,
    sid_delta_generator_loss,
    sim_generator_loss,
)
from simdistill.harness.cli import main
from simdistill.harness.config import parse_config
from simdistill.metrics import mmd_rbf
from simdistill.nnkit import Adam, MlpNet, backward
from simdistill.oracles import (
    GaussianSpec,
    GmmSpec,
    LinearGenerator,
    gmm_denoiser_graph,
    gmm_sample,
    ring_gmm,
)
from simdistill.rng import make_rng, named_streams
from simdistill.verify import check_score_projection, check_theorem1, gradcheck_suite

DATA = Path(__file__).parent / "data"

DSM_FIDELITY_TOL = 0.05
GRADCHECK_TOL = 1e-6
EXACT_TOL = 1e-12


def _report(capfd, index: str, label: str, ok: bool, detail: str,
            elapsed: float, budget: float) -> None:
    line = (
        f"[{'PASS' if ok and elapsed < budget else 'FAIL'}] {index} {label}: "
        f"{detail}; {elapsed:.1f}s (budget {budget:.0f}s)"
    )
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


# ---------------------------------------------------------------------------
# 1/9 autodiff + distance derivatives vs central finite differences


def test_gradcheck_battery(capfd):
    t0 = time.perf_counter()
    reports = gradcheck_suite(seed=11, probes=100)
    elapsed = time.perf_counter() - t0
    worst = max(rep.estimate[0] for rep in reports)
    ok = all(rep.passed for rep in reports) and worst <= GRADCHECK_TOL
    _report(
        capfd, "1/9", "gradcheck battery",
        ok,
        f"{len(reports)} checks, max rel err {worst:.2e} (tol {GRADCHECK_TOL:g}, 100 probes)",
        elapsed, 10.0,
    )


# ---------------------------------------------------------------------------
# 2/9 score-projection identity at Monte-Carlo scale


def test_score_projection_identity(capfd):
    t0 = time.perf_counter()
    n = 1_000_000
    gauss = GaussianSpec([0.3, -0.2], [[1.0, 0.2], [0.2, 0.8]])
    linear = LinearGenerator([[1.1, 0.3], [0.0, 0.9]], [0.5, -0.4])
    mix = GmmSpec([0.5, 0.5], [[1.5, 0.0], [-1.5, 0.0]], 0.6)
    reports = [
        check_score_projection(gauss, u="ones", t=1.0, n_mc=n, seed=21),
        check_score_projection(linear, u="identity", t=0.7, n_mc=n, seed=22),
        check_score_projection(mix, u="net", t=1.5, n_mc=n, seed=23),
    ]
    elapsed = time.perf_counter() - t0
    worst_z = max(
        max(abs(e) / s for e, s in zip(rep.estimate, rep.se)) for rep in reports
    )
    ok = all(rep.passed for rep in reports)
    _report(
        capfd, "2/9", "score-projection identity",
        ok,
        f"3 configurations at n=10^6, max |z| {worst_z:.2f} (gate 3.00)",
        elapsed, 60.0,
    )


# ---------------------------------------------------------------------------
# 3/9 divergence gradient equals matching-loss gradient (CRN FD vs autodiff)


def test_gradient_identity_battery(capfd):
    t0 = time.perf_counter()
    theta_rng = make_rng(31)
    standard = GaussianSpec([0.0, 0.0], np.eye(2))
    mix = GmmSpec([0.5, 0.5], [[1.5, 0.0], [-1.5, 0.0]], 0.6)
    grid = (0.5, 1.0, 2.0)
    reports = []
    for k in range(5):
        A = np.eye(2) + 0.25 * theta_rng.standard_normal((2, 2))
        b = 0.5 * theta_rng.standard_normal(2)
        p = LinearGenerator(A, b)
        for q in (standard, mix):
            for d in (DistanceFn.l2(), DistanceFn.pseudo_huber(0.5)):
                reports.append(
                    check_theorem1(
                        p, q, d, grid, n_mc=2048, seed=300 + k, replicates=12
                    )
                )
    elapsed = time.perf_counter() - t0
    ok = all(rep.verdict == "pass" for rep in reports)
    bad = [rep.name for rep in reports if rep.verdict != "pass"]
    _report(
        capfd, "3/9", "divergence-gradient identity",
        ok,
        f"5 random θ × (Gaussian, two-mode GMM) × (l2, pseudo_huber), 3·SE gate"
        + (f"; failing: {bad}" if bad else ""),
        elapsed, 300.0,
    )


# ---------------------------------------------------------------------------
# 4/9 the dedicated delta loss is the l2 instance, gradient for gradient


def test_delta_loss_is_l2_special_case(capfd):
    t0 = time.perf_counter()
    dspec = DiffusionSpec()
    tdist = TimeDistribution.log_normal(-1.0, 1.0)
    mix = GmmSpec([0.4, 0.6], [[2.0, 0.0], [-2.0, 0.5]], 0.5)
    teacher = lambda x, t: gmm_denoiser_graph(mix, x, t)
    frozen = MlpNet([2, 32, 2], conditioning="concat-log-t", seed=44).detached()
    online = lambda x, t: frozen(x, t)
    worst = 0.0
    for rep in range(5):
        gen = MlpGenerator(MlpNet([2, 32, 32, 2], seed=45))
        g_generic = backward(
            sim_generator_loss(
                gen, online, teacher, DistanceFn.l2(), dspec, tdist,
                WeightingFn.one(), 128, make_rng(46 + rep),
            ),
            gen.parameters(),
        )
        g_delta = backward(
            sid_delta_generator_loss(
                gen, online, teacher, dspec, tdist,
                WeightingFn.one(), 128, make_rng(46 + rep),
            ),
            gen.parameters(),
        )
        for a, b in zip(g_generic, g_delta):
            scale = max(np.abs(b).max(), 1e-12)
            worst = max(worst, float(np.abs(a - b).max() / scale))
    elapsed = time.perf_counter() - t0
    _report(
        capfd, "4/9", "delta loss = l2 instance",
        worst <= EXACT_TOL,
        f"5 batches, max grad rel err {worst:.2e} (tol {EXACT_TOL:g})",
        elapsed, 30.0,
    )


# ---------------------------------------------------------------------------
# 5/9 denoising regression reaches the analytic posterior mean


@pytest.mark.slow
def test_denoiser_fidelity_unit_gaussian(capfd):
    t0 = time.perf_counter()
    steps = 20_000
    dspec = DiffusionSpec()
    tdist = TimeDistribution.fixed_grid((0.5, 1.0, 2.0))
    wfn = WeightingFn.edm()
    streams = named_streams(505, ["init", "train"])
    head = PreconditionedDenoiser(
        MlpNet(
            [2, 64, 64, 2], activation="silu", conditioning="concat-log-t",
            seed=int(streams["init"].integers(2**31)),
        ),
        sigma_data=dspec.sigma_data,
    )
    opt = Adam(head.named_parameters(), lr=1e-3)
    rng = streams["train"]
    for step in range(1, steps + 1):
        opt.lr = 1e-6 + 0.5 * (1e-3 - 1e-6) * (
            1.0 + np.cos(np.pi * (step - 1) / steps)
        )
        x0 = rng.standard_normal((512, 2))
        loss = dsm_loss(head, x0, dspec, tdist, wfn, rng)
        opt.step(backward(loss, head.parameters()))

    g = np.linspace(-3.0, 3.0, 13)
    xx, yy = np.meshgrid(g, g)
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        pred = head(grid, np.full(len(grid), t)).data
        worst = max(worst, float(np.abs(pred - grid / (1.0 + t * t)).max()))
    elapsed = time.perf_counter() - t0
    _report(
        capfd, "5/9", "denoiser fidelity on N(0,I)",
        worst <= DSM_FIDELITY_TOL,
        f"max |d(x,t) − x/(1+t²)| = {worst:.4f} on [−3,3]² grid, t ∈ {{0.5, 1, 2}} "
        f"(tol {DSM_FIDELITY_TOL})",
        elapsed, 600.0,
    )


# ---------------------------------------------------------------------------
# 6/9 end-to-end distillation against the analytic ring teacher


def _desk_ring_config(gen_lr: float | None = None, distance: dict | None = None):
    distill = {
        "gen_steps": 20_000,
        "eval_interval": 2_000,
        "eval_samples": 2_048,
        "final_eval_samples": 10_000,
    }
    if gen_lr is not None:
        distill["gen_lr"] = gen_lr
    if distance is not None:
        distill["distance"] = distance
    return parse_config({"tag": "ring8", "seed": 0, "preset": "desk-2d", "distill": distill})


def _null_fixture():
    fx = json.loads((DATA / "ring8_mmd_null.json").read_text())
    return np.asarray(fx["bandwidths"]), 2.0 * fx["null_q99"], fx


@pytest.mark.slow
def test_ring8_distillation_end_to_end(capfd):
    t0 = time.perf_counter()
    ring = ring_gmm(8, 4.0, 0.3)
    cfg = _desk_ring_config()
    assert cfg.distill.distance.tag == "pseudo_huber"
    res = run_distillation(cfg.distill, ring, ring, seed=cfg.seed, gspec=cfg.generator)
    bandwidths, gate, fx = _null_fixture()
    reference = gmm_sample(ring, make_rng(7202), 10_000)
    mmd2 = mmd_rbf(res.final_samples, reference, bandwidths=bandwidths)
    counts = res.mode_counts
    covered = counts is not None and int(counts.min()) >= 200
    elapsed = time.perf_counter() - t0
    _report(
        capfd, "6/9", "ring-8 distillation",
        covered and mmd2 <= gate,
        f"mode counts {counts.tolist()} (each ≥ 200 of 10^4), "
        f"MMD² {mmd2:.2e} ≤ 2×null-q99 {gate:.2e} "
        f"(null: {fx['replicates']} teacher self-draws)",
        elapsed, 1800.0,
    )


# ---------------------------------------------------------------------------
# 7/9 matched online/teacher fields give an exactly stationary generator


def test_fixed_point_zero_gradient(capfd):
    t0 = time.perf_counter()
    dspec = DiffusionSpec()
    tdist = TimeDistribution.log_normal(-1.0, 1.0)
    mix = GmmSpec([0.5, 0.5], [[1.5, 0.0], [-1.5, 0.0]], 0.6)
    field = lambda x, t: gmm_denoiser_graph(mix, x, t)
    tags = [
        DistanceFn.l2(), DistanceFn.l1(), DistanceFn.huber(1.0),
        DistanceFn.pseudo_huber(0.5), DistanceFn.power(4),
        DistanceFn.exp_power(2, 0.3),
    ]
    worst = 0.0
    for d in tags:
        gen = MlpGenerator(MlpNet([2, 32, 32, 2], seed=71))
        loss = sim_generator_loss(
            gen, field, field, d, dspec, tdist, WeightingFn.one(), 128, make_rng(72)
        )
        grads = backward(loss, gen.parameters())
        worst = max(worst, max(float(np.abs(g).max()) for g in grads))
    elapsed = time.perf_counter() - t0
    _report(
        capfd, "7/9", "fixed point at the teacher",
        worst <= EXACT_TOL,
        f"all 6 distance tags, max |∂θ| = {worst:.2e} (tol {EXACT_TOL:g})",
        elapsed, 30.0,
    )


# ---------------------------------------------------------------------------
# 8/9 bounded distance survives a 10× generator learning rate; l2 does not win


@pytest.mark.slow
def test_large_lr_robustness(capfd):
    from simdistill.distill import DivergenceHalt

    t0 = time.perf_counter()
    ring = ring_gmm(8, 4.0, 0.3)
    bandwidths, _, _ = _null_fixture()
    reference = gmm_sample(ring, make_rng(7202), 10_000)
    lr10 = 1e-2  # 10× the desk-2d generator rate

    cfg_ph = _desk_ring_config(gen_lr=lr10)
    res_ph = run_distillation(cfg_ph.distill, ring, ring, seed=cfg_ph.seed,
                              gspec=cfg_ph.generator)
    mmd_ph = mmd_rbf(res_ph.final_samples, reference, bandwidths=bandwidths)

    cfg_l2 = _desk_ring_config(gen_lr=lr10, distance={"tag": "l2"})
    halted = ""
    try:
        res_l2 = run_distillation(cfg_l2.distill, ring, ring, seed=cfg_l2.seed,
                                  gspec=cfg_l2.generator)
        mmd_l2 = mmd_rbf(res_l2.final_samples, reference, bandwidths=bandwidths)
    except DivergenceHalt as halt:
        mmd_l2 = float("inf")
        halted = f" (l2 halted at step {halt.step})"
    elapsed = time.perf_counter() - t0
    _report(
        capfd, "8/9", "robustness at 10× generator lr",
        mmd_ph <= mmd_l2,
        f"pseudo_huber completed with its per-batch |loss| ≤ envelope bound "
        f"asserted every step; MMD² {mmd_ph:.2e} ≤ l2 MMD² {mmd_l2:.2e}{halted}",
        elapsed, 3600.0,
    )


# ---------------------------------------------------------------------------
# 9/9 byte-identical reruns through the command-line harness


def test_seeded_reruns_are_byte_identical(capfd, tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "tag": "determinism",
        "seed": 12,
        "preset": "desk-2d",
        "data": {"kind": "gmm", "weights": [0.5, 0.5],
                 "means": [[2.0, 0.0], [-2.0, 0.0]], "scales": 0.4},
        "teacher": {"kind": "gmm", "weights": [0.5, 0.5],
                    "means": [[2.0, 0.0], [-2.0, 0.0]], "scales": 0.4},
        "distill": {"gen_steps": 300, "eval_interval": 100,
                    "eval_samples": 256, "final_eval_samples": 512,
                    "batch_size": 128},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    for name in ("d1", "d2"):
        code = main(["distill", "--config", str(cfg_path), "--out", str(tmp_path / name)])
        assert code == 0
    metrics_same = filecmp.cmp(tmp_path / "d1" / "metrics.csv",
                               tmp_path / "d2" / "metrics.csv", shallow=False)

    for name in ("v1", "v2"):
        code = main(["verify", "--check", "gradcheck", "--probes", "25",
                     "--seed", "9", "--out", str(tmp_path / name)])
        assert code == 0
    reports_same = filecmp.cmp(tmp_path / "v1" / "reports.json",
                               tmp_path / "v2" / "reports.json", shallow=False)
    elapsed = time.perf_counter() - t0
    _report(
        capfd, "9/9", "seeded reruns",
        metrics_same and reports_same,
        f"distill twice → metrics.csv identical: {metrics_same}; "
        f"verify twice → reports.json identical: {reports_same}",
        elapsed, 120.0,
    )
