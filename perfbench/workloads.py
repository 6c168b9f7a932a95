"""The four workloads of the simdistill benchmark.

Each workload drives the package through its public library and CLI entry
points, in this one process: ``run_distillation`` with its step and row
callbacks, ``simdistill train-teacher``/``eval``/``verify`` through
``harness.cli.main``, and the ``metrics`` functions. Timing uses those
callbacks. With tracing on, :func:`install_tracing` wraps the layer
boundaries as well.

Every run reports every end-to-end metric. Where a workload's own rounds
never perform an operation (nothing is distilled in ``verify-battery``), a
short fixed probe of that operation runs after each round, outside its
timing, and supplies the figure; README.md lists which figures come from
probes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import numpy as np

from simdistill import distill as D
from simdistill import kernels
from simdistill import metrics as M
from simdistill import oracles as O
from simdistill import verify as V
from simdistill.harness import checkpoint as C
from simdistill.harness import cli
from simdistill.harness.config import parse_config
from simdistill.nnkit import Adam, MlpNet
from simdistill.nnkit import net as net_mod
from simdistill.rng import named_streams

import checks
from tracing import Tracer, median_or_zero, total_ms

RING = O.ring_gmm(8, 4.0, 0.3)
_ANGLES = 2.0 * np.pi * np.arange(8) / 8 + np.pi / 16
ROTATED = O.GmmSpec(RING.weights, 4.0 * np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=1), RING.scales)
RING_DATA = {"kind": "gmm", "weights": RING.weights.tolist(), "means": RING.means.tolist(), "scales": 0.3}

# distillation sections layered over the desk-2d preset (batch 512, ratio 2,
# pseudo-Huber, lr 1e-3 with cosine generator decay)
DISTILL = {"gen_steps": 250, "eval_interval": 200, "eval_samples": 2048, "final_eval_samples": 2048}
EVAL_GENERATOR = {"gen_steps": 100, "eval_interval": 0, "final_eval_samples": 1024}
PROBE_DISTILL = {"gen_steps": 20, "eval_interval": 0, "final_eval_samples": 2048}
TEACHER_TRAIN = {"steps": 1500, "batch_size": 256, "lr": 1e-3, "log_interval": 100}

EVAL_N = 10_000  # eval-10k: generator samples against reference samples
SAMPLE_BATCH = 10_000  # one-step sampling is timed at this batch
CHECK_N = 2048  # samples per side for the distillation-bound MMD²
PLANTED_N = 2048  # samples per side for the planted ring-vs-rotated-ring pair

# Final MMD² to the ring over the initial generator's, both at CHECK_N
# samples: 0.04-0.10 over 27 seeds with the ring-8 teacher. With the
# trained teacher it spreads from 0.07 to 0.76 over 28 seeds, because the
# generator often sits on a few of the 8 modes after 250 steps and a one-mode
# collapse reads like an unmoved generator; that workload records the ratio
# and does not bound it.
RING8_MMD_FRACTION = 0.25

VERIFY_SEEDS = tuple(range(8))  # each passes every report of the battery
VERIFY_REPORTS = 34

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "distill_steps_per_s": "1/s",
    "eval_s": "s",
    "gen_samples_per_s": "1/s",
}

STEP_LAYERS = (
    "distill.p1_gen_sample_ms",
    "distill.dsm_forward_ms",
    "nnkit.p1_backward_ms",
    "nnkit.p1_adam_ms",
    "distill.p2_gen_forward_ms",
    "distill.p2_online_field_ms",
    "oracles.p2_teacher_field_ms",
    "distances.derivative_ms",
    "diffusion.p2_ms",
    "nnkit.p2_backward_ms",
    "nnkit.p2_adam_ms",
    "distill.step_self_ms",
    "nnkit.silu_ms",
    "nnkit.silu_calls",
)
PER_LAYER = {
    **{name: ("count" if name.endswith("_calls") else "ms") for name in STEP_LAYERS},
    "nnkit.tape_nodes_p1": "count",
    "nnkit.tape_nodes_p2": "count",
    "distill.in_loop_eval_ms": "ms",
    "distill.teacher_dsm_forward_ms": "ms",
    "nnkit.teacher_backward_ms": "ms",
    "nnkit.teacher_adam_ms": "ms",
    "harness.checkpoint_save_ms": "ms",
    "harness.checkpoint_load_ms": "ms",
    "harness.validation_replay_ms": "ms",
    "harness.svg_ms": "ms",
    "metrics.median_bandwidth_ms": "ms",
    "kernels.mmd_sums_ms": "ms",
    "kernels.mmd_kernel_evals_per_s": "1/s",
    "metrics.w2_ms": "ms",
    "metrics.coverage_ms": "ms",
    "oracles.sample_clean_ms": "ms",
    "distill.gen_sample_ms": "ms",
    "verify.gradcheck_s": "s",
    "verify.score_projection_s": "s",
    "verify.theorem1_s": "s",
    "oracles.divergence_value_s": "s",
    "kernels.gmm_fields_ms": "ms",
}


# ---------------------------------------------------------------------------
# one run


class Run:
    """State of one benchmark run: timestamps, series, counts, failures."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: Path, process_age):
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.workdir = workdir
        self._process_age = process_age
        self.marks: list[tuple[str, float]] = []
        self.series: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.info: dict = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.sampler = None  # (generator, rng, every): see use_sampler

    def mark(self, kind: str) -> None:
        self.marks.append((kind, time.perf_counter()))

    def setup_done(self) -> None:
        """End of set-up: imports, config parsing, teacher construction."""
        self.values["setup_s"] = self._process_age()
        if self.tracer is not None:
            install_tracing(self.tracer)

    def rounds(self, min_rounds: int, probes=None):
        """Whole rounds until ``seconds`` have passed and at least ``min_rounds`` ran.

        ``probes()``, when given, runs after every round, outside its timing,
        so that probe figures are spread over the run. Peak RSS is read after
        the first round, before any probe.
        """
        start = time.perf_counter()
        i = 0
        while i < min_rounds or time.perf_counter() - start < self.seconds:
            self.mark("round")
            t0 = time.perf_counter()
            yield i
            self.series["round_s"].append(time.perf_counter() - t0)
            self.mark("end")
            if i == 0:
                self.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if probes is not None:
                probes()
            i += 1

    def end_timed(self) -> None:
        """After the rounds and probes: unwrap, so the checks run untraced."""
        if self.tracer is not None:
            self.tracer.restore()


def _config(seed: int, distill: dict, **extra) -> dict:
    return {"seed": seed, "preset": "desk-2d", "data": RING_DATA, "teacher": RING_DATA, "distill": distill, **extra}


def _quiet(argv: list[str]) -> tuple[int, str]:
    """``simdistill <argv>`` in this process, its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def distill(run: Run, cfg, teacher, reference):
    """One ``run_distillation``; its callbacks stamp every step and evaluation.

    Every few steps the step callback also times one call of
    ``run.sampler``'s ``sample`` at SAMPLE_BATCH, between a pause and a resume
    mark that cut it out of the step windows. The sampler draws from its own
    rng, so the distillation itself is unchanged.
    """
    n = cfg.distill.gen_steps
    done = 0

    def on_step(step, p1, p2):
        nonlocal done
        run.mark("step")
        done = step
        if run.sampler is not None and step % run.sampler[2] == 0:
            run.mark("pause")
            time_sampling(run, 1)
            run.mark("resume")

    def on_row(row):
        run.mark("row")

    run.mark("distill")
    run.attempted += n
    try:
        return D.run_distillation(
            cfg.distill, teacher, reference, cfg.seed, gspec=cfg.generator, dspec=cfg.diffusion,
            step_callback=on_step, row_callback=on_row,
        )
    except (D.DivergenceHalt, AssertionError, FloatingPointError) as err:
        run.failed += n - done
        run.info.setdefault("halts", []).append(str(err))
        return None


def time_sampling(run: Run, calls: int) -> None:
    gen, rng, _ = run.sampler
    for _ in range(calls):
        t0 = time.perf_counter()
        gen.sample(rng, SAMPLE_BATCH)
        run.series["sample_s"].append(time.perf_counter() - t0)


def use_sampler(run: Run, cfg, every: int) -> None:
    """Time sampling every ``every`` steps on a generator of the run's
    architecture, at its initial weights: the cost of a forward pass does not
    depend on them, and the run's own generator is internal to the loop."""
    gen = D.initial_generator(2, cfg.seed, gspec=cfg.generator, dspec=cfg.diffusion)
    run.sampler = (gen, np.random.default_rng([run.seed, 0x5A]), every)


def train_teacher(run: Run, config: dict, out: Path) -> int:
    """``simdistill train-teacher``; its steps count as operations."""
    path = out.with_suffix(".json")
    path.write_text(json.dumps(config), encoding="utf-8")
    steps = config["teacher_train"]["steps"]
    code, _ = _quiet(["train-teacher", "--config", str(path), "--out", str(out)])
    run.attempted += steps
    if code != 0:
        run.failed += steps
    return code


def step_windows(marks):
    """(start, end) of every generator step but the first of each distillation,
    with evaluations and timed sampling cut out, and (start, end) of every
    evaluation.

    An evaluation starts when the step callback returns and ends at the row
    callback; the next step starts where the evaluation ended.
    """
    steps, evals = [], []
    prev = None
    for kind, t in marks:
        if kind == "step":
            if prev is not None:
                steps.append((prev, t))
            prev = t
        elif kind == "row":
            if prev is not None:
                evals.append((prev, t))
            prev = t
        elif kind == "resume":
            prev = t if prev is not None else None
        elif kind != "pause":
            prev = None
    return steps, evals


def round_windows(marks):
    starts = [t for kind, t in marks if kind == "round"]
    ends = [t for kind, t in marks if kind == "end"]
    return list(zip(starts, ends))


# ---------------------------------------------------------------------------
# the workloads


def _distill_checks(run: Run, cfg, results, digests, fraction: float | None) -> None:
    """MMD² to the ring falls (unless ``fraction`` is None), and repeats at
    one seed are byte-identical."""
    if not results:
        run.errors.extend(["no distillation finished"])
        return
    rng = np.random.default_rng([run.seed, 0xC4EC])
    gen0 = D.initial_generator(2, cfg.seed, gspec=cfg.generator, dspec=cfg.diffusion)
    initial = gen0.sample(rng, CHECK_N)
    final = results[0].generator.sample(rng, CHECK_N)
    errors, figures = checks.check_distilled(initial, final, O.sample_clean(RING, rng, CHECK_N), fraction)
    run.errors.extend(errors)
    run.info["distill_check"] = figures
    run.errors.extend(checks.check_identical(digests, "final generator parameters"))


def p90(values) -> float:
    return float(np.percentile(list(values), 90))


def _summarise(run: Run) -> None:
    """Per-run figures: the 90th percentile of each operation's times.

    On a shared host a run's operations fall into a fast and a slow state
    set by other tenants' load; the median flips between the two from run
    to run, the 90th percentile stays in the slow state unless nearly the
    whole run was fast (README.md, "Run-to-run spread").
    """
    steps, evals = step_windows(run.marks)
    run.series["step_s"] = [b - a for a, b in steps]
    run.series["eval_s"] = run.series["eval10k_s"] or [b - a for a, b in evals]
    for metric, series, scale in (
        ("wall_s", "round_s", None),
        ("eval_s", "eval_s", None),
        ("distill_steps_per_s", "step_s", 1.0),
        ("gen_samples_per_s", "sample_s", SAMPLE_BATCH),
    ):
        if run.series[series]:  # else run.py reports the metric as not measured
            q = p90(run.series[series])
            run.values[metric] = q if scale is None else scale / q


def ring8_distill(run: Run) -> None:
    cfg = parse_config(_config(run.seed, DISTILL))
    teacher = cfg.teacher["spec"]
    run.setup_done()
    use_sampler(run, cfg, every=25)
    results, digests = [], []
    for _ in run.rounds(2):
        res = distill(run, cfg, teacher, cfg.data["spec"])
        if res is not None:
            results.append(res)
            digests.append(checks.state_digest(res.generator.net.state_dict()))
    run.end_timed()
    _summarise(run)
    _distill_checks(run, cfg, results, digests, RING8_MMD_FRACTION)


def trained_teacher(run: Run) -> None:
    config = _config(run.seed, DISTILL, teacher_train=TEACHER_TRAIN)
    del config["teacher"]  # the teacher is the checkpoint each round trains
    cfg = parse_config(config)
    run.setup_done()
    use_sampler(run, cfg, every=25)
    results, digests, ckpt_digests, replays, nets = [], [], [], [], []
    for i in run.rounds(2):
        out = run.workdir / f"teacher-{i}"
        if train_teacher(run, config, out) != 0:
            continue
        ckpt = out / "teacher.ckpt"
        code, _ = _quiet(["eval", "--checkpoint", str(ckpt), "--out", str(out / "eval")])
        replays.append((code, json.loads((out / "eval" / "eval_report.json").read_text(encoding="utf-8"))))
        net = C.load_checkpoint(ckpt).build_net()
        res = distill(run, cfg, net, RING)
        if res is not None:
            results.append(res)
            digests.append(checks.state_digest(res.generator.net.state_dict()))
        nets.append(net)
        ckpt_digests.append(hashlib.blake2b(ckpt.read_bytes(), digest_size=16).hexdigest())
    run.end_timed()
    _summarise(run)

    for code, report in replays:
        val = report.get("validation", {})
        if code != 0 or val.get("ok") is not True:
            run.errors.extend([f"simdistill eval did not replay the golden loss: exit {code}, {val}"])
    run.errors.extend(checks.check_identical(ckpt_digests, "teacher checkpoints"))
    if nets:
        x0, t, x_t, levels, per = checks.heldout_draws(RING, run.seed)
        oracle = np.vstack([O.gmm_denoiser(RING, x_t[i * per : (i + 1) * per], lv) for i, lv in enumerate(levels)])
        init_seed = int(named_streams(run.seed, ["teacher_init", "teacher_train", "teacher_val"])["teacher_init"].integers(2**31))
        untrained = MlpNet([2, 64, 64, 2], conditioning="concat-log-t", seed=init_seed)
        errors, figures = checks.check_teacher(nets[0](x_t, t).data, oracle, untrained(x_t, t).data, x0, t)
        run.errors.extend(errors)
        run.info["teacher_check"] = figures
    _distill_checks(run, cfg, results, digests, None)


def eval_10k(run: Run) -> None:
    cfg = parse_config(_config(run.seed, EVAL_GENERATOR))
    run.setup_done()
    use_sampler(run, cfg, every=10)

    outputs = None
    # a second batch of timed sampling calls, 30 s after the first
    for _ in run.rounds(1, probes=lambda: time_sampling(run, 10)):
        res = distill(run, cfg, RING, RING)
        if res is None:
            continue
        rng = np.random.default_rng([run.seed, 0xE7A1])
        run.attempted += 1
        t0 = time.perf_counter()
        X = res.generator.sample(rng, EVAL_N)
        Y = O.sample_clean(RING, rng, EVAL_N)
        mmd = M.mmd_rbf(X, Y)
        w2 = M.gaussian_w2(X, Y)
        cov, counts = M.mode_coverage(X, RING)
        run.series["eval10k_s"].append(time.perf_counter() - t0)
        outputs = (X, Y, mmd, w2, cov, counts)
    run.end_timed()
    if outputs is None:
        run.errors.extend(["no evaluation finished"])
        return
    _summarise(run)

    X, Y, mmd, w2, cov, counts = outputs
    run.info["eval"] = {"mmd": mmd, "w2_gauss": w2, "mode_coverage": cov, "mode_counts": counts.tolist()}
    run.errors.extend(checks.check_mmd(X, Y, mmd, "eval-10k"))
    run.errors.extend(checks.check_w2(X, Y, w2))
    run.errors.extend(checks.check_coverage(X, RING, cov, counts))
    prng = np.random.default_rng([run.seed, 0x91A7])
    P, Q = O.sample_clean(RING, prng, PLANTED_N), O.sample_clean(ROTATED, prng, PLANTED_N)
    run.errors.extend(checks.check_planted_mmd(P, Q, M.mmd_rbf(P, Q), RING, ROTATED))


def verify_battery(run: Run) -> None:
    vseed = VERIFY_SEEDS[run.seed % len(VERIFY_SEEDS)]
    probe_cfg = parse_config(_config(run.seed, PROBE_DISTILL))
    run.setup_done()
    use_sampler(run, probe_cfg, every=4)

    payloads = []
    for i in run.rounds(3, probes=lambda: distill(run, probe_cfg, RING, RING)):
        out = run.workdir / f"verify-{i}"
        code, _ = _quiet(["verify", "--check", "all", "--seed", str(vseed), "--out", str(out)])
        payload = json.loads((out / "reports.json").read_text(encoding="utf-8"))
        run.attempted += len(payload["checks"])
        run.failed += sum(c["verdict"] != "pass" for c in payload["checks"])
        run.errors.extend(checks.check_reports(code, payload, VERIFY_REPORTS))
        payloads.append(json.dumps(payload["checks"], sort_keys=True))
    run.end_timed()
    _summarise(run)
    run.info["verify_seed"] = vseed
    run.errors.extend(checks.check_identical(payloads, "verify reports"))


WORKLOADS = {
    "ring8-distill": ring8_distill,
    "trained-teacher": trained_teacher,
    "eval-10k": eval_10k,
    "verify-battery": verify_battery,
}


# ---------------------------------------------------------------------------
# tracing


def install_tracing(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    tr.wrap(D, "dsm_loss", "dsm_loss", phase="p1")
    real_sim = D.sim_generator_loss

    def sim_loss(gen, score_net, teacher_score, *args, **kwargs):
        return real_sim(gen, tr.span("online_field", score_net), tr.span("teacher_field", teacher_score), *args, **kwargs)

    tr.swap(D, "sim_generator_loss", tr.span("sim_loss", sim_loss, phase="p2"))
    tr.wrap_backward(D)
    tr.wrap_backward(cli)
    tr.wrap(Adam, "step", "adam", phased=True)
    tr.wrap(D.MlpGenerator, "sample", "gen_sample", info=lambda a, k: a[2])
    tr.wrap(D.MlpGenerator, "forward", "gen_forward")
    for name in ("sample_times", "perturb", "weight_batch"):
        tr.wrap(D, name, "diffusion", phased=True)
    tr.wrap(D, "dist_derivative", "derivative")
    tr.wrap(net_mod.ACTIVATIONS, "silu", "silu")
    # evaluation calls record their sample size: per-call figures use the
    # run's largest evaluation only (eval-10k also evaluates at 1024)
    tr.wrap(kernels, "mmd_sums", "mmd_sums", info=lambda a, k: (len(a[0]), len(a[1]), len(a[2])))
    tr.wrap(M, "median_heuristic_bandwidths", "median_bandwidth", info=lambda a, k: len(a[0]) + len(a[1]))
    for owner in (M, D):
        tr.wrap(owner, "gaussian_w2", "w2", info=lambda a, k: len(a[0]) + len(a[1]))
        tr.wrap(owner, "mode_coverage", "coverage", info=lambda a, k: len(a[0]))
    for owner in (O, D):
        tr.wrap(owner, "sample_clean", "sample_clean", info=lambda a, k: a[2])
    tr.wrap(cli, "dsm_loss", "teacher_dsm", phase="teacher")
    tr.wrap(cli, "save_checkpoint", "checkpoint_save")
    for owner in (cli, C):
        tr.wrap(owner, "load_checkpoint", "checkpoint_load")
    tr.wrap(cli, "teacher_validation_loss", "validation_replay")
    tr.wrap(cli, "line_chart", "svg")
    tr.wrap(cli, "scatter_plot", "svg")
    tr.wrap(cli, "gradcheck_suite", "gradcheck")
    tr.wrap(cli, "check_score_projection", "score_projection")
    tr.wrap(cli, "check_theorem1", "theorem1")
    tr.wrap(V, "divergence_value", "divergence_value")
    tr.wrap(kernels, "gmm_fields", "gmm_fields")


_STEP_SPANS = {
    # metric: (span name, top-level only)
    "distill.p1_gen_sample_ms": ("gen_sample", True),
    "distill.dsm_forward_ms": ("dsm_loss", True),
    "nnkit.p1_backward_ms": ("backward@p1", True),
    "nnkit.p1_adam_ms": ("adam@p1", True),
    "distill.p2_gen_forward_ms": ("gen_forward", False),
    "distill.p2_online_field_ms": ("online_field", False),
    "oracles.p2_teacher_field_ms": ("teacher_field", False),
    "distances.derivative_ms": ("derivative", False),
    "diffusion.p2_ms": ("diffusion@p2", False),
    "nnkit.p2_backward_ms": ("backward@p2", True),
    "nnkit.p2_adam_ms": ("adam@p2", True),
    "nnkit.silu_ms": ("silu", False),
}


def _largest(spans):
    """The spans whose recorded size is the largest among them."""
    top = max((s[4] for s in spans), default=None)
    return [s for s in spans if s[4] == top]


def layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer figures from the spans; 0 where a layer never ran."""
    tr = run.tracer
    tr.finish()
    steps, evals = step_windows(run.marks)
    per_step = defaultdict(list)
    for a, b in steps:
        top, inner = tr.between(a, b, depth=0), tr.between(a, b)
        for metric, (name, top_only) in _STEP_SPANS.items():
            per_step[metric].append(total_ms(top if top_only else inner, name))
        per_step["distill.step_self_ms"].append((b - a) * 1e3 - sum((s[2] - s[1]) * 1e3 for s in top))
        per_step["nnkit.silu_calls"].append(sum(s[0] == "silu" for s in inner))
    out = {metric: median_or_zero(per_step[metric]) for metric in STEP_LAYERS}

    def top_median_ms(name):
        return median_or_zero((s[2] - s[1]) * 1e3 for s in tr.calls(name) if s[3] == 0)

    out["nnkit.tape_nodes_p1"] = median_or_zero(s[4] for s in tr.calls("backward@p1"))
    out["nnkit.tape_nodes_p2"] = median_or_zero(s[4] for s in tr.calls("backward@p2"))
    out["distill.in_loop_eval_ms"] = median_or_zero((b - a) * 1e3 for a, b in evals)
    out["distill.teacher_dsm_forward_ms"] = top_median_ms("teacher_dsm")
    out["nnkit.teacher_backward_ms"] = top_median_ms("backward@teacher")
    out["nnkit.teacher_adam_ms"] = top_median_ms("adam@teacher")
    for metric, name in (
        ("harness.checkpoint_save_ms", "checkpoint_save"),
        ("harness.checkpoint_load_ms", "checkpoint_load"),
        ("harness.validation_replay_ms", "validation_replay"),
        ("harness.svg_ms", "svg"),
    ):
        out[metric] = tr.call_median_ms(name)
    for metric, name in (
        ("metrics.median_bandwidth_ms", "median_bandwidth"),
        ("kernels.mmd_sums_ms", "mmd_sums"),
        ("metrics.w2_ms", "w2"),
        ("metrics.coverage_ms", "coverage"),
        ("oracles.sample_clean_ms", "sample_clean"),
    ):
        out[metric] = median_or_zero((s[2] - s[1]) * 1e3 for s in _largest(tr.calls(name)))
    # kernel evaluations as the package counts them: off-diagonal XX and YY
    # pairs plus all XY pairs, once per bandwidth
    out["kernels.mmd_kernel_evals_per_s"] = median_or_zero(
        (m * (m - 1) + n * (n - 1) + m * n) * nb / (s[2] - s[1]) for s in _largest(tr.calls("mmd_sums")) for m, n, nb in [s[4]]
    )
    out["distill.gen_sample_ms"] = median_or_zero(
        (s[2] - s[1]) * 1e3 for s in tr.calls("gen_sample") if s[4] == SAMPLE_BATCH
    )
    rounds = round_windows(run.marks)
    for metric, name, scale in (
        ("verify.gradcheck_s", "gradcheck", 1e-3),
        ("verify.score_projection_s", "score_projection", 1e-3),
        ("verify.theorem1_s", "theorem1", 1e-3),
        ("oracles.divergence_value_s", "divergence_value", 1e-3),
        ("kernels.gmm_fields_ms", "gmm_fields", 1.0),
    ):
        out[metric] = median_or_zero(total_ms(tr.between(a, b), name) * scale for a, b in rounds)
    # share of step time the spans cover, for the tracing-overhead table
    if steps:
        run.info["span_coverage_of_step"] = 1.0 - out["distill.step_self_ms"] / (1e3 * median(b - a for a, b in steps))
    return out
