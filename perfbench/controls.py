"""Negative controls: each correctness check of the benchmark, fed a clean
output and then a planted defect, must accept the first and reject the second.

    python3 perfbench/controls.py

Prints one line per control and exits 0 only when every check behaves. Takes
about a minute on 2 vCPUs (it trains a small teacher and distills once).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run as bench  # sizes the BLAS pools before numpy loads

sys.path.insert(0, str(bench.ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402
from simdistill import distill as D  # noqa: E402
from simdistill import kernels  # noqa: E402
from simdistill import metrics as M  # noqa: E402
from simdistill import oracles as O  # noqa: E402
from simdistill import verify as V  # noqa: E402
from simdistill.harness import checkpoint as C  # noqa: E402
from simdistill.harness.config import parse_config  # noqa: E402
from simdistill.nnkit import MlpNet  # noqa: E402
from simdistill.nnkit import tensor as T  # noqa: E402

SEED = 0
results: list[tuple[str, bool, list[str]]] = []


def expect(name: str, errors: list[str], planted: bool) -> None:
    """A clean output must give no errors; a planted defect at least one."""
    ok = bool(errors) == planted
    results.append((name, ok, errors))
    tag = "rejected" if errors else "accepted"
    print(f"[{'ok' if ok else 'WRONG':5s}] {name}: {tag}{' — ' + errors[0] if errors else ''}", flush=True)


def mmd_controls(rng) -> None:
    X = O.sample_clean(W.RING, rng, 1024)
    Y = O.sample_clean(W.ROTATED, rng, 1024)
    expect("mmd: mmd_rbf as shipped", checks.check_mmd(X, Y, M.mmd_rbf(X, Y), "clean"), planted=False)

    real = kernels.mmd_sums

    def perturbed(A, B, h):
        sums = real(A, B, h)
        sums[2, 2] *= 1.0 + 1e-6  # one cross-sum, one bandwidth, off by 1 ppm
        return sums

    kernels.mmd_sums = perturbed
    try:
        value = M.mmd_rbf(X, Y)
    finally:
        kernels.mmd_sums = real
    expect("mmd: one kernel sum perturbed by 1e-6", checks.check_mmd(X, Y, value, "perturbed"), planted=True)

    wrong = M.median_heuristic_bandwidths(X, Y, factors=(0.5, 1.0, 2.0, 4.0, 8.0))
    expect("mmd: ladder shifted one rung", checks.check_mmd(X, Y, M.mmd_rbf(X, Y, bandwidths=wrong), "ladder"), planted=True)

    P, Q = O.sample_clean(W.RING, rng, W.PLANTED_N), O.sample_clean(W.ROTATED, rng, W.PLANTED_N)
    expect("planted pair: mmd_rbf as shipped", checks.check_planted_mmd(P, Q, M.mmd_rbf(P, Q), W.RING, W.ROTATED), planted=False)
    biased = M.mmd_rbf(P, Q, unbiased=False)
    expect("planted pair: biased estimator", checks.check_planted_mmd(P, Q, biased, W.RING, W.ROTATED), planted=True)


def w2_coverage_controls(rng) -> None:
    X = O.sample_clean(W.RING, rng, 4096) * 0.9
    Y = O.sample_clean(W.RING, rng, 4096)
    expect("w2: gaussian_w2 as shipped", checks.check_w2(X, Y, M.gaussian_w2(X, Y)), planted=False)
    ridge = 1e-9 * np.eye(2)
    biased_cov = M.gaussian_w2_moments(
        X.mean(axis=0), np.cov(X, rowvar=False, bias=True) + ridge, Y.mean(axis=0), np.cov(Y, rowvar=False, bias=True) + ridge
    )
    expect("w2: covariances with ddof=0", checks.check_w2(X, Y, biased_cov), planted=True)
    frac, counts = M.mode_coverage(X, W.RING)
    expect("coverage: mode_coverage as shipped", checks.check_coverage(X, W.RING, frac, counts), planted=False)
    frac, counts = M.mode_coverage(X, W.RING, radius_multiplier=2.9)
    expect("coverage: radius 2.9 s instead of 3 s", checks.check_coverage(X, W.RING, frac, counts), planted=True)


def teacher_controls(workdir: Path) -> None:
    run = W.Run(SEED, 0.0, False, workdir, lambda: 0.0)
    config = {"seed": SEED, "data": W.RING_DATA, "teacher_train": W.TEACHER_TRAIN}
    if W.train_teacher(run, config, workdir / "teacher") != 0:
        raise RuntimeError("simdistill train-teacher failed")
    net = C.load_checkpoint(workdir / "teacher" / "teacher.ckpt").build_net()
    x0, t, x_t, levels, per = checks.heldout_draws(W.RING, SEED)
    oracle = np.vstack([O.gmm_denoiser(W.RING, x_t[i * per : (i + 1) * per], lv) for i, lv in enumerate(levels)])
    untrained = MlpNet([2, 64, 64, 2], conditioning="concat-log-t", seed=1)(x_t, t).data
    trained = net(x_t, t).data
    expect("teacher: trained net", checks.check_teacher(trained, oracle, untrained, x0, t)[0], planted=False)
    expect("teacher: untrained net", checks.check_teacher(untrained, oracle, untrained, x0, t)[0], planted=True)
    # an "oracle" evaluated at 3 t is no minimiser; the trained net beats it
    wrong = np.vstack([O.gmm_denoiser(W.RING, x_t[i * per : (i + 1) * per], 3.0 * lv) for i, lv in enumerate(levels)])
    expect("teacher: oracle at the wrong noise level", checks.check_teacher(trained, wrong, untrained, x0, t)[0], planted=True)


def distill_controls(workdir: Path, rng) -> None:
    run = W.Run(SEED, 0.0, False, workdir, lambda: 0.0)
    cfg = parse_config(W._config(SEED, W.DISTILL))
    res = W.distill(run, cfg, W.RING, W.RING)
    gen0 = D.initial_generator(2, SEED, gspec=cfg.generator, dspec=cfg.diffusion)
    ref = O.sample_clean(W.RING, rng, W.CHECK_N)
    initial = gen0.sample(rng, W.CHECK_N)
    final = res.generator.sample(rng, W.CHECK_N)
    expect("distill: generator after the loop", checks.check_distilled(initial, final, ref, W.RING8_MMD_FRACTION)[0], planted=False)
    expect("distill: initial generator", checks.check_distilled(initial, gen0.sample(rng, W.CHECK_N), ref, W.RING8_MMD_FRACTION)[0], planted=True)
    same = [checks.state_digest(res.generator.net.state_dict())] * 2
    expect("repeats: equal digests", checks.check_identical(same, "parameters"), planted=False)
    expect("repeats: one parameter moved by one ulp", checks.check_identical(same[:1] + [_nudged_digest(res.generator)], "parameters"), planted=True)


def _nudged_digest(gen) -> str:
    state = gen.net.state_dict()
    name = sorted(state)[0]
    state[name].flat[0] = np.nextafter(state[name].flat[0], np.inf)
    return checks.state_digest(state)


def verify_controls(workdir: Path) -> None:
    expected = len(V.default_gradcheck_cases()) + 1
    code, _ = W._quiet(["verify", "--check", "gradcheck", "--probes", "5", "--out", str(workdir / "clean")])
    payload = _load(workdir / "clean")
    expect("verify: gradcheck battery as shipped", checks.check_reports(code, payload, expected), planted=False)

    real = W.cli.gradcheck_suite
    cases = V.default_gradcheck_cases()
    # autodiff says 3, finite differences say 2: the report must fail
    cases["silu"] = (lambda a: T._make(2.0 * a.data, "two-faced", (a,), lambda g: (3.0 * g,)), cases["silu"][1])
    W.cli.gradcheck_suite = lambda seed=0, probes=100: real(seed=seed, probes=probes, cases=cases)
    try:
        code, _ = W._quiet(["verify", "--check", "gradcheck", "--probes", "5", "--out", str(workdir / "planted")])
    finally:
        W.cli.gradcheck_suite = real
    expect("verify: a report forced to fail", checks.check_reports(code, _load(workdir / "planted"), expected), planted=True)


def _load(out: Path) -> dict:
    return json.loads((out / "reports.json").read_text(encoding="utf-8"))


def main() -> int:
    rng = np.random.default_rng(20261019)
    with tempfile.TemporaryDirectory(dir=bench.HERE) as tmp:
        work = Path(tmp)
        mmd_controls(rng)
        w2_coverage_controls(rng)
        verify_controls(work)
        teacher_controls(work)
        distill_controls(work, rng)
    bad = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(bad)} of {len(results)} controls behave" + (f"; wrong: {bad}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
