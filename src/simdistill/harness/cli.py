"""Command-line shell: teacher training, distillation, verification, plots.

Exit codes: 0 success, 1 validation error (bad flags, malformed config,
incompatible checkpoint), 2 runtime failure (diverged run, failed check,
I/O error mid-run). Every run directory is self-describing — the echoed
config plus its seed reproduces metrics.csv byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .. import __version__
from ..diffusion import DiffusionSpec
from ..distances import DistanceFn
from ..distill import (
    DivergenceHalt,
    MlpGenerator,
    _STREAM_NAMES,
    _reference_samples,
    dsm_loss,
    initial_generator,
    run_distillation,
)
from ..metrics import MetricRow, gaussian_w2, mmd_rbf, mode_coverage
from ..nnkit import Adam, MlpNet, backward
from ..oracles import GaussianSpec, GmmSpec, LinearGenerator, sample_clean
from ..rng import ALGORITHM, make_rng, named_streams
from ..verify import check_score_projection, check_theorem1, gradcheck_suite
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    net_arch,
    rng_state_of,
    save_checkpoint,
)
from .config import (
    ConfigError,
    RunConfig,
    TeacherTrainConfig,
    _data_dict,
    _fields_dict,
    _gmm_dict,
    _parse_data,
    _parse_fields,
    _parse_gmm,
    _parse_time_dist,
    _parse_weighting,
    _time_dist_dict,
    _weighting_dict,
    config_hash,
    load_config,
)
from .svg import line_chart, scatter_plot

GOLDEN_LOSS_TOL = 1e-12


class UsageError(ValueError):
    """Bad command line — maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want code 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# small shared helpers


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_points(path: Path, pts: np.ndarray) -> None:
    np.savetxt(path, np.asarray(pts, dtype=float), fmt="%.17g", delimiter=",")


def _load_points(path: Path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as err:
        raise UsageError(f"cannot read sample file {path}: {err}") from err


def _out_dir(args, cfg: RunConfig | None = None, default: str = ".") -> Path:
    if getattr(args, "out", None):
        out = Path(args.out)
    elif cfg is not None and cfg.out_dir:
        out = Path(cfg.out_dir)
    elif cfg is not None:
        out = Path("runs") / cfg.tag
    else:
        out = Path(default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _reference_object(data: dict):
    """The evaluation reference: the analytic family itself, or raw points."""
    if data["kind"] == "gmm":
        return data["spec"]
    return _load_points(Path(data["path"]))


def _teacher_object(cfg: RunConfig):
    """Frozen teacher from the config: analytic GMM or a trained net."""
    teacher = cfg.teacher
    if teacher is None:
        raise ConfigError("teacher", "this command requires a teacher section")
    if teacher["kind"] == "gmm":
        return teacher["spec"]
    ck = load_checkpoint(teacher["path"])
    form = cfg.distill.loss_form if cfg.distill is not None else "denoiser"
    if ck.net_form is not None and ck.net_form != form:
        raise ConfigError(
            "teacher.path",
            f"checkpoint net was trained in {ck.net_form!r} form but "
            f"distill.loss_form is {form!r}; retrain or change the loss form",
        )
    return ck.build_net()


def _metrics_stream(path: Path):
    """Open metrics.csv and return (file, row writer); rows are append-only."""
    fh = open(path, "w", encoding="utf-8")
    fh.write(MetricRow.CSV_HEADER + "\n")
    fh.flush()

    def write(row: MetricRow) -> None:
        fh.write(row.to_csv() + "\n")
        fh.flush()

    return fh, write


def _read_metrics(path: Path) -> np.ndarray | None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        return None
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _curve_plots(out: Path, rows: np.ndarray) -> None:
    """metrics.csv content -> the two standard curve charts."""
    step = rows[:, 0]
    line_chart(
        [("denoising loss", step, rows[:, 1]), ("matching loss", step, rows[:, 2])],
        out / "curves_loss.svg",
        title="training losses", x_label="generator step", y_label="loss",
    )
    line_chart(
        [
            ("mmd", step, rows[:, 3]),
            ("gaussian W2", step, rows[:, 4]),
            ("mode coverage", step, rows[:, 5]),
        ],
        out / "curves_metrics.svg",
        title="evaluation metrics", x_label="generator step", y_label="value",
    )


def _scatter(out: Path, name: str, title: str, samples: np.ndarray, refs: np.ndarray) -> None:
    scatter_plot(
        [("reference", refs), ("generator", samples)],
        out / name, title=title,
    )


def generator_from_checkpoint(ck: Checkpoint) -> MlpGenerator:
    """Rebuild a one-step generator saved by the distill command."""
    tag = ck.extra.get("tag", "mlp")
    if tag not in ("mlp", "denoiser-as-generator"):
        raise CheckpointError(f"checkpoint carries unknown generator tag {tag!r}")
    if tag == "denoiser-as-generator" and "t_star" not in ck.extra:
        raise CheckpointError("denoiser-as-generator checkpoint lacks extra.t_star")
    t_star = ck.extra["t_star"] if tag == "denoiser-as-generator" else None
    return MlpGenerator(ck.build_net(), t_star)


def teacher_validation_loss(net: MlpNet, proto: dict, base_dir: str | Path = ".") -> float:
    """Replay a checkpoint's self-contained validation protocol.

    The protocol pins the data spec, diffusion, time/weight laws, seed and
    batch size, so the returned loss is a pure function of the net weights.
    A csv data path is resolved from ``base_dir``, the checkpoint's directory.
    """
    dspec = _parse_fields(DiffusionSpec, proto["diffusion"], "validation.diffusion")
    tdist = _parse_time_dist(proto["time_dist"], "validation.time_dist")
    weighting = _parse_weighting(proto["weighting"], "validation.weighting")
    data = _parse_data(proto["data"], "validation.data", Path(base_dir))
    rng = make_rng(int(proto["seed"]))
    x0 = _reference_samples(_reference_object(data), rng, int(proto["n"]))
    return dsm_loss(net, x0, dspec, tdist, weighting, rng, net_form=proto["net_form"]).item()


# ---------------------------------------------------------------------------
# verification battery


def _battery_score_projection(seed: int, n_mc: int):
    gauss = GaussianSpec([0.3, -0.2], [[1.0, 0.2], [0.2, 0.8]])
    linear = LinearGenerator([[1.1, 0.3], [0.0, 0.9]], [0.5, -0.4])
    mix = GmmSpec([0.5, 0.5], [[1.5, 0.0], [-1.5, 0.0]], 0.6)
    return [
        check_score_projection(gauss, u="ones", t=1.0, n_mc=n_mc, seed=seed),
        check_score_projection(linear, u="identity", t=0.7, n_mc=n_mc, seed=seed),
        check_score_projection(mix, u="net", t=1.5, n_mc=n_mc, seed=seed),
    ]


def _battery_theorem1(seed: int, n_mc: int, replicates: int):
    pair = LinearGenerator([[1.0, 0.0], [0.3, 0.9]], [0.5, -0.2])
    shifted = LinearGenerator(np.eye(2), [1.0, 0.0])
    standard = GaussianSpec([0.0, 0.0], np.eye(2))
    skew = LinearGenerator([[0.8, 0.1], [0.0, 1.1]], [0.2, -0.1])
    mix = GmmSpec([0.5, 0.5], [[1.5, 0.0], [-1.5, 0.0]], 0.6)
    kw = dict(n_mc=n_mc, seed=seed, replicates=replicates)
    return [
        check_theorem1(pair, pair, DistanceFn.l2(), (0.5, 1.5), **kw),
        check_theorem1(shifted, standard, DistanceFn.l2(), (0.5, 1.0, 2.0), **kw),
        check_theorem1(skew, mix, DistanceFn.pseudo_huber(0.5), (0.5, 1.0, 2.0), **kw),
    ]


def _run_reports(reports, out: Path, seed: int) -> int:
    for rep in reports:
        print(rep.summary_line())
    payload = {
        "algorithm": ALGORITHM,
        "seed": seed,
        "version": __version__,
        "checks": [rep.to_dict() for rep in reports],
        "all_passed": all(rep.passed for rep in reports),
    }
    _dump_json(out / "reports.json", payload)
    print(f"wrote {out / 'reports.json'}")
    return 0 if payload["all_passed"] else 2


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    out = _out_dir(args)
    reports = []
    if args.check in ("all", "gradcheck"):
        reports += gradcheck_suite(seed=args.seed, probes=args.probes)
    if args.check in ("all", "score-projection"):
        reports += _battery_score_projection(args.seed, args.n_mc_projection)
    if args.check in ("all", "theorem1"):
        reports += _battery_theorem1(args.seed, args.n_mc, args.replicates)
    return _run_reports(reports, out, args.seed)


def _cmd_train_teacher(args) -> int:
    cfg = load_config(args.config)
    if cfg.data is None:
        raise ConfigError("data", "train-teacher requires a data section")
    tt = cfg.teacher_train or TeacherTrainConfig()
    out = _out_dir(args, cfg)
    (out / "config_echo.json").write_text(cfg.canonical_json(), encoding="utf-8")

    reference = _reference_object(cfg.data)
    dim = cfg.data["dim"]
    streams = named_streams(cfg.seed, ["teacher_init", "teacher_train", "teacher_val"])
    net = MlpNet(
        [dim, *tt.hidden, dim],
        activation="silu",
        conditioning="concat-log-t",
        seed=int(streams["teacher_init"].integers(2**31)),
    )
    opt = Adam(net.named_parameters(), lr=tt.lr)
    train_rng = streams["teacher_train"]

    fh, write_row = _metrics_stream(out / "metrics.csv")
    try:
        for step in range(1, tt.steps + 1):
            x0 = _reference_samples(reference, train_rng, tt.batch_size)
            loss = dsm_loss(
                net, x0, cfg.diffusion, tt.time_dist, tt.weighting,
                train_rng, net_form=tt.net_form,
            )
            opt.step(backward(loss, net.parameters()))
            if step % tt.log_interval == 0 or step == tt.steps:
                write_row(MetricRow(
                    step, loss.item(), float("nan"), float("nan"),
                    float("nan"), float("nan"), 0.0,
                ))
    finally:
        fh.close()

    data = _data_dict(cfg.data)
    if data["kind"] == "csv":
        # the replay resolves the path from the checkpoint's directory
        data["path"] = os.path.relpath(Path(cfg.data["path"]).resolve(), out.resolve())
    proto = {
        "seed": int(streams["teacher_val"].integers(2**31)),
        "n": tt.val_samples,
        "net_form": tt.net_form,
        "time_dist": _time_dist_dict(tt.time_dist),
        "weighting": _weighting_dict(tt.weighting),
        "diffusion": _fields_dict(cfg.diffusion),
        "data": data,
    }
    golden = teacher_validation_loss(net, proto, base_dir=out)
    ck = Checkpoint(
        kind="teacher",
        arch=net_arch(net),
        arrays=net.state_dict(),
        step=tt.steps,
        rng_state=rng_state_of(train_rng),
        config_hash=config_hash(cfg),
        net_form=tt.net_form,
        extra={"validation": {"loss": golden, "protocol": proto}},
    )
    save_checkpoint(out / "teacher.ckpt", ck)

    rows = _read_metrics(out / "metrics.csv")
    if rows is not None:
        line_chart(
            [("denoising loss", rows[:, 0], rows[:, 1])],
            out / "curves_loss.svg",
            title="teacher training", x_label="step", y_label="loss", log_y=True,
        )
    _dump_json(out / "run_summary.json", {
        "algorithm": ALGORITHM,
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "steps": tt.steps,
        "validation_loss": golden,
    })
    print(f"teacher trained for {tt.steps} steps; validation loss {golden:.6f}")
    print(f"wrote {out / 'teacher.ckpt'}")
    return 0


def _cmd_distill(args) -> int:
    cfg = load_config(args.config)
    if cfg.distill is None:
        raise ConfigError("distill", "distill requires a distill section")
    if cfg.data is None:
        raise ConfigError("data", "distill requires a data section")
    teacher = _teacher_object(cfg)
    reference = _reference_object(cfg.data)
    out = _out_dir(args, cfg)
    (out / "config_echo.json").write_text(cfg.canonical_json(), encoding="utf-8")
    chash = config_hash(cfg)

    init_state = None
    if args.init_from:
        ck = load_checkpoint(args.init_from, expect_config_hash=chash, force=args.force)
        init_state = ck.arrays

    data_dim = cfg.data["dim"]
    streams = named_streams(cfg.seed, _STREAM_NAMES + ["before", "reference_dump"])
    gen0 = initial_generator(data_dim, cfg.seed, gspec=cfg.generator, dspec=cfg.diffusion)
    if init_state is not None:
        gen0.net.load_state_dict(init_state)
    n_dump = cfg.distill.final_eval_samples
    before = gen0.sample(streams["before"], n_dump)
    ref_pts = (
        sample_clean(reference, streams["reference_dump"], n_dump)
        if not isinstance(reference, np.ndarray)
        else reference
    )
    _write_points(out / "samples_before.csv", before)
    _write_points(out / "reference.csv", ref_pts)
    _scatter(out, "scatter_before.svg", "before distillation", before, ref_pts)

    fh, write_row = _metrics_stream(out / "metrics.csv")
    t_start = time.perf_counter()
    try:
        result = run_distillation(
            cfg.distill, teacher, reference, cfg.seed,
            gspec=cfg.generator, dspec=cfg.diffusion,
            row_callback=write_row, gen_init_state=init_state,
        )
    finally:
        fh.close()
    elapsed = time.perf_counter() - t_start

    _write_points(out / "samples_after.csv", result.final_samples)
    _scatter(out, "scatter_after.svg", "after distillation", result.final_samples, ref_pts)
    rows = _read_metrics(out / "metrics.csv")
    if rows is not None:
        _curve_plots(out, rows)

    gen_extra = {
        "tag": cfg.generator.tag,
        "t_star": cfg.generator.t_star,
        "latent_dim": cfg.generator.latent_dim,
    }
    if cfg.data["kind"] == "gmm":
        gen_extra["reference"] = _gmm_dict(cfg.data["spec"])
    save_checkpoint(out / "generator.ckpt", Checkpoint(
        kind="generator",
        arch=net_arch(result.generator.net),
        arrays=result.generator.net.state_dict(),
        step=cfg.distill.gen_steps,
        rng_state=None,
        config_hash=chash,
        extra=gen_extra,
    ))
    save_checkpoint(out / "online.ckpt", Checkpoint(
        kind="online",
        arch=net_arch(result.online_net),
        arrays=result.online_net.state_dict(),
        step=cfg.distill.gen_steps,
        rng_state=None,
        config_hash=chash,
        net_form=cfg.distill.loss_form,
    ))
    _dump_json(out / "run_summary.json", {
        "algorithm": ALGORITHM,
        "seed": cfg.seed,
        "config_hash": chash,
        "steps": cfg.distill.gen_steps,
        "final_mmd": result.final_mmd,
        "final_mode_coverage": result.final_coverage,
        "mode_counts": None if result.mode_counts is None else result.mode_counts.tolist(),
        "seconds": elapsed if cfg.distill.record_wall_time else 0.0,
    })
    print(
        f"distilled {cfg.distill.gen_steps} steps; final mmd {result.final_mmd:.6f}, "
        f"mode coverage {result.final_coverage:.3f}"
    )
    print(f"artifacts under {out}")
    return 0


def _cmd_eval(args) -> int:
    ck = load_checkpoint(
        args.checkpoint,
        expect_config_hash=args.expect_config_hash,
        force=args.force,
    )
    out = _out_dir(args)
    report = {
        "algorithm": ALGORITHM,
        "seed": args.seed,
        "checkpoint": str(args.checkpoint),
        "kind": ck.kind,
        "step": ck.step,
        "config_hash": ck.config_hash,
    }
    code = 0
    if ck.kind == "teacher" and "validation" in ck.extra:
        recorded = float(ck.extra["validation"]["loss"])
        recomputed = teacher_validation_loss(
            ck.build_net(), ck.extra["validation"]["protocol"],
            base_dir=Path(args.checkpoint).resolve().parent,
        )
        diff = abs(recomputed - recorded)
        report["validation"] = {
            "recorded_loss": recorded,
            "recomputed_loss": recomputed,
            "abs_diff": diff,
            "tolerance": GOLDEN_LOSS_TOL,
            "ok": diff <= GOLDEN_LOSS_TOL,
        }
        print(
            f"validation loss recorded {recorded!r}, recomputed {recomputed!r} "
            f"(|diff| = {diff:.3e})"
        )
        if diff > GOLDEN_LOSS_TOL:
            print("validation loss does NOT reproduce the recorded value", file=sys.stderr)
            code = 2
    elif ck.kind == "generator":
        gen = generator_from_checkpoint(ck)
        rng = make_rng(args.seed)
        samples = gen.sample(rng, args.samples)
        _write_points(out / "samples.csv", samples)
        if "reference" in ck.extra:
            spec = _parse_gmm(ck.extra["reference"], "reference")
            refs = sample_clean(spec, rng, args.samples)
            coverage, counts = mode_coverage(samples, spec)
            report["metrics"] = {
                "mmd": mmd_rbf(samples, refs),
                "w2_gauss": gaussian_w2(samples, refs),
                "mode_coverage": coverage,
                "mode_counts": counts.tolist(),
                "n": args.samples,
            }
            _scatter(out, "scatter.svg", "generator samples", samples, refs)
            print(
                f"mmd {report['metrics']['mmd']:.6f}, "
                f"mode coverage {coverage:.3f} over {args.samples} samples"
            )
        else:
            scatter_plot([("generator", samples)], out / "scatter.svg", title="generator samples")
            print(f"wrote {args.samples} samples (no reference stored in checkpoint)")
    else:
        print(f"checkpoint kind {ck.kind!r}: nothing to evaluate beyond metadata")
    _dump_json(out / "eval_report.json", report)
    print(f"wrote {out / 'eval_report.json'}")
    return code


def _cmd_plot(args) -> int:
    run = Path(args.run)
    metrics = run / "metrics.csv"
    if not metrics.is_file():
        raise UsageError(f"{metrics} not found; --run must point at a run directory")
    header = metrics.read_text(encoding="utf-8").splitlines()[0]
    if header != MetricRow.CSV_HEADER:
        raise UsageError(f"{metrics}: unexpected header {header!r}")
    made = []
    rows = _read_metrics(metrics)
    if rows is not None:
        _curve_plots(run, rows)
        made += ["curves_loss.svg", "curves_metrics.svg"]
    ref_file = run / "reference.csv"
    if ref_file.is_file():
        refs = _load_points(ref_file)
        for stem in ("before", "after"):
            sfile = run / f"samples_{stem}.csv"
            if sfile.is_file():
                _scatter(run, f"scatter_{stem}.svg", f"{stem} distillation",
                         _load_points(sfile), refs)
                made.append(f"scatter_{stem}.svg")
    print(f"regenerated {', '.join(made)} under {run}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="simdistill", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="fit a denoiser to the data spec by score matching")
    p.add_argument("--config", required=True, help="run config JSON (needs data, optionally teacher_train)")
    p.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    p.set_defaults(func=_cmd_train_teacher)

    p = sub.add_parser("distill", help="distill the teacher into a one-step generator")
    p.add_argument("--config", required=True, help="run config JSON (needs distill, teacher, data)")
    p.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    p.add_argument("--init-from", default=None, help="warm-start the generator from a checkpoint")
    p.add_argument("--force", action="store_true", help="accept an init checkpoint with a different config hash")
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("verify", help="run statistical identity checks and write reports.json")
    p.add_argument("--check", default="all", choices=("all", "gradcheck", "score-projection", "theorem1"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="where to write reports.json (default: current directory)")
    p.add_argument("--probes", type=int, default=100, help="finite-difference probes per gradcheck case")
    p.add_argument("--n-mc", type=int, default=4096, help="Monte-Carlo batch for the gradient-identity check")
    p.add_argument("--replicates", type=int, default=16,
                   help="independent repeats used to estimate the gradient-identity standard errors")
    p.add_argument("--n-mc-projection", type=int, default=200_000,
                   help="Monte-Carlo sample count for the score-projection check")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate a checkpoint (golden loss or sample metrics)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expect-config-hash", default=None, help="refuse the checkpoint unless its hash matches")
    p.add_argument("--force", action="store_true", help="accept a checkpoint with a different config hash")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference audit of every autodiff primitive")
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify, check="gradcheck")

    p = sub.add_parser("plot", help="regenerate the SVG charts of a finished run directory")
    p.add_argument("--run", required=True, help="run directory containing metrics.csv")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DivergenceHalt as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
