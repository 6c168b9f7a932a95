"""Operational shell: config schema, checkpoint format, CLI contracts.

CLI subcommands run in-process through ``main(argv)`` so exit codes and
artifacts can be asserted quickly; determinism contracts are checked by
byte comparison of emitted files.
"""

import dataclasses
import json
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from simdistill.diffusion import DiffusionSpec
from simdistill.distill import DistillConfig, GeneratorSpec, run_distillation
from simdistill.harness.checkpoint import (
    MAGIC,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    net_arch,
    restore_rng,
    rng_state_of,
    save_checkpoint,
)
from simdistill.harness.cli import GOLDEN_LOSS_TOL, generator_from_checkpoint, main
from simdistill.harness.config import (
    PRESETS,
    ConfigError,
    TeacherTrainConfig,
    config_hash,
    load_config,
    parse_config,
)
from simdistill.harness.svg import line_chart, scatter_plot
from simdistill.metrics import MetricRow
from simdistill.nnkit import MlpNet
from simdistill.oracles import GmmSpec

DATA = Path(__file__).parent / "data"

TWO_MODE = {
    "kind": "gmm",
    "weights": [0.5, 0.5],
    "means": [[1.5, 0.0], [-1.5, 0.0]],
    "scales": 0.6,
}


def _base_config(**over):
    obj = {
        "tag": "t",
        "seed": 3,
        "data": dict(TWO_MODE),
        "teacher": dict(TWO_MODE),
        "distill": {"gen_steps": 10},
    }
    obj.update(over)
    return obj


# ---------------------------------------------------------------------------
# config schema


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config({})
        assert cfg.tag == "run"
        assert cfg.seed == 0
        assert cfg.distill is None
        assert cfg.diffusion.sigma_max == 80.0

    def test_unknown_top_level_key_names_path(self):
        with pytest.raises(ConfigError, match="distil: unknown key"):
            parse_config({"distil": {}})

    def test_unknown_nested_key_names_full_path(self):
        obj = _base_config()
        obj["distill"]["distance"] = {"tag": "l2", "bogus": 1}
        with pytest.raises(ConfigError, match=r"distill\.distance\.bogus"):
            parse_config(obj)

    def test_wrong_type_names_path(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": "three"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"seed": True})

    def test_preset_fills_defaults_and_user_wins(self):
        cfg = parse_config(_base_config(preset="desk-2d"))
        assert cfg.distill.batch_size == 512
        cfg2 = parse_config(_base_config(
            preset="desk-2d", distill={"gen_steps": 10, "batch_size": 64}))
        assert cfg2.distill.batch_size == 64
        assert cfg.distill.gen_lr_decay == "cosine"
        cfg3 = parse_config(_base_config(
            preset="desk-2d", distill={"gen_steps": 10, "gen_lr_decay": "none"}))
        assert cfg3.distill.gen_lr_decay == "none"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config({"preset": "mystery"})

    def test_edm_cifar_preset_selects_denoiser_generator(self):
        cfg = parse_config(_base_config(preset="edm-cifar"))
        assert cfg.generator.tag == "denoiser-as-generator"
        assert cfg.distill.batch_size == 256

    def test_resolved_form_is_a_fixed_point(self):
        cfg = parse_config(_base_config(preset="desk-2d"))
        canon = cfg.canonical_json()
        again = parse_config(json.loads(canon))
        assert again.canonical_json() == canon

    def test_round_trip_is_lossless(self):
        obj = _base_config()
        obj["distill"].update({
            "distance": {"tag": "pseudo_huber", "c": 0.25},
            "gen_time_dist": {"kind": "karr-uniform", "k_max": 200},
            "score_weighting": {"kind": "sid", "C": 1.5},
        })
        cfg = parse_config(obj)
        back = parse_config(json.loads(cfg.canonical_json()))
        assert back.distill.distance.c == 0.25
        assert back.distill.gen_time_dist.k_max == 200
        assert back.distill.score_weighting.C == 1.5
        assert back.canonical_json() == cfg.canonical_json()

    def test_distance_tags_round_trip(self):
        for d in (
            {"tag": "l2"},
            {"tag": "l1"},
            {"tag": "power", "alpha": 4},
            {"tag": "exp_power", "alpha": 2, "beta": 0.3},
            {"tag": "huber", "delta": 0.7},
            {"tag": "pseudo_huber", "c": 0.5},
        ):
            obj = _base_config()
            obj["distill"]["distance"] = d
            cfg = parse_config(obj)
            assert cfg.distill.distance.tag == d["tag"]
            again = parse_config(json.loads(cfg.canonical_json()))
            assert again.distill.distance == cfg.distill.distance

    def test_distance_rejects_foreign_parameter(self):
        obj = _base_config()
        obj["distill"]["distance"] = {"tag": "l2", "c": 0.5}
        with pytest.raises(ConfigError, match=r"distill\.distance\.c"):
            parse_config(obj)

    def test_default_distance_scales_with_data_dim(self):
        obj = _base_config()
        obj["data"] = {
            "kind": "gmm",
            "weights": [1.0],
            "means": [[0.0, 0.0, 0.0, 0.0]],
            "scales": 1.0,
        }
        obj["teacher"] = dict(obj["data"])
        cfg = parse_config(obj)
        assert cfg.distill.distance.tag == "pseudo_huber"
        assert cfg.distill.distance.c == pytest.approx(0.1 * 2.0)

    def test_csv_data_dim_discovered(self, tmp_path):
        pts = np.arange(12.0).reshape(4, 3)
        np.savetxt(tmp_path / "pts.csv", pts, delimiter=",")
        cfg = parse_config(
            {"data": {"kind": "csv", "path": "pts.csv"}}, base_dir=tmp_path)
        assert cfg.data["dim"] == 3

    def test_csv_data_missing_file_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"data\.path"):
            parse_config({"data": {"kind": "csv", "path": "nope.csv"}}, base_dir=tmp_path)

    def test_gmm_validation_errors_carry_path(self):
        bad = dict(TWO_MODE, weights=[0.5, 0.6])
        with pytest.raises(ConfigError, match="data"):
            parse_config({"data": bad})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_load_config_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_config_hash_tracks_content(self):
        a = parse_config(_base_config())
        b = parse_config(_base_config())
        c = parse_config(_base_config(seed=4))
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_teacher_checkpoint_path_resolved_against_config_dir(self, tmp_path):
        cfg = parse_config(
            {"teacher": {"kind": "checkpoint", "path": "sub/t.ckpt"}},
            base_dir=tmp_path,
        )
        assert cfg.teacher["path"] == str(tmp_path / "sub" / "t.ckpt")
        # ...but the echo keeps the raw relative path
        assert cfg.resolved()["teacher"]["path"] == "sub/t.ckpt"

    def test_presets_expose_both_scales(self):
        assert set(PRESETS) == {"edm-cifar", "desk-2d"}


# Recorded with the hand-written per-section parsers and serializers that the
# dataclass-driven ones replaced. A config hash is stamped into every
# checkpoint, so a change here refuses existing checkpoints.
CORPUS = json.loads((Path(__file__).parent / "data" / "config_corpus.json").read_text(encoding="utf-8"))

# one valid non-default JSON value for every field of each section dataclass;
# drift is left out because only its default is accepted
NON_DEFAULT = {
    ("diffusion", DiffusionSpec): {
        "sigma_min": 0.01, "sigma_max": 60.0, "rho": 5.0, "K": 500, "sigma_data": 0.7, "T": 40.0,
    },
    ("generator", GeneratorSpec): {
        "tag": "denoiser-as-generator", "latent_dim": 3, "widths": [2, 8, 2], "t_star": 1.5,
        "activation": "tanh", "conditioning": "raw",
    },
    ("distill", DistillConfig): {
        "gen_steps": 77, "score_lr": 2e-4, "gen_lr": 3e-4, "gen_lr_decay": "cosine", "batch_size": 64,
        "ratio": 3, "distance": {"tag": "exp_power", "alpha": 2, "beta": 0.3},
        "score_time_dist": {"kind": "karr-uniform", "k_max": 300},
        "gen_time_dist": {"kind": "fixed-grid", "values": [0.5, 1.0, 2.5]},
        "score_weighting": {"kind": "sid", "C": 1.5}, "gen_weighting": {"kind": "edm", "sigma_data": 0.7},
        "loss_form": "score", "first_factor_grad": False, "baseline": "di", "score_hidden": [32, 16, 8],
        "activation": "tanh", "conditioning": "raw", "eval_interval": 7, "eval_samples": 99,
        "final_eval_samples": 123, "record_wall_time": True, "divergence_threshold": 12345.0,
    },
    ("teacher_train", TeacherTrainConfig): {
        "steps": 12, "lr": 0.002, "batch_size": 32, "hidden": [16, 8], "net_form": "score",
        "val_samples": 64, "log_interval": 3,
        "time_dist": {"kind": "log-normal", "p_mean": -1.0, "p_std": 0.5}, "weighting": {"kind": "one"},
    },
}


def _all_sections():
    return _base_config(diffusion={}, generator={}, teacher_train={})


class TestConfigSchema:
    @pytest.mark.parametrize("name", sorted(CORPUS["valid"]))
    def test_hash_and_canonical_json_match_the_recorded_corpus(self, name):
        entry = CORPUS["valid"][name]
        cfg = parse_config(entry["config"])
        assert cfg.canonical_json() == json.dumps(entry["resolved"], indent=2, sort_keys=True) + "\n"
        assert config_hash(cfg) == entry["config_hash"]

    @pytest.mark.parametrize("name", sorted(CORPUS["malformed"]))
    def test_config_errors_match_the_recorded_corpus(self, name):
        entry = CORPUS["malformed"][name]
        with pytest.raises(ConfigError) as err:
            parse_config(entry["config"])
        assert str(err.value) == entry["error"]

    def test_every_field_has_a_non_default_case(self):
        for (_, cls), values in NON_DEFAULT.items():
            names = {f.name for f in dataclasses.fields(cls)}
            assert set(values) | ({"drift"} if cls is DiffusionSpec else set()) == names

    @pytest.mark.parametrize(
        "section,key,value",
        [(sec, key, val) for (sec, _), values in NON_DEFAULT.items() for key, val in values.items()],
    )
    def test_non_default_value_round_trips_and_moves_the_hash(self, section, key, value):
        base = parse_config(_all_sections())
        obj = _all_sections()
        obj[section][key] = value
        cfg = parse_config(obj)
        canon = cfg.canonical_json()
        assert json.loads(canon)[section][key] == value
        assert json.loads(canon)[section][key] != base.resolved()[section][key]
        assert parse_config(json.loads(canon)).canonical_json() == canon
        assert config_hash(cfg) != config_hash(base)

    @pytest.mark.parametrize("key", ["time_dist", "weighting"])
    def test_teacher_train_null_law_is_rejected(self, key):
        with pytest.raises(ConfigError, match=rf"^teacher_train\.{key}: expected an object, got None$"):
            parse_config({"teacher_train": {key: None}})

    @pytest.mark.parametrize(
        "section,key,values,path",
        [
            ("distill", "score_hidden", [False, 8.9], "distill.score_hidden[0]: expected an integer, got False"),
            ("distill", "score_hidden", [8, 8.9], "distill.score_hidden[1]: expected an integer, got 8.9"),
            ("teacher_train", "hidden", [1.5, True], "teacher_train.hidden[0]: expected an integer, got 1.5"),
            ("teacher_train", "hidden", [16.0, 8], "teacher_train.hidden[0]: expected an integer, got 16.0"),
            ("teacher_train", "hidden", ["wide"], "teacher_train.hidden[0]: expected an integer, got 'wide'"),
            ("generator", "widths", [2, 64, True, 2], "generator.widths[2]: expected an integer, got True"),
        ],
    )
    def test_width_lists_take_integers_only(self, section, key, values, path):
        obj = _base_config()
        obj.setdefault(section, {})[key] = values
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        assert str(err.value) == path

    def test_width_lists_keep_their_integers(self):
        obj = _base_config(teacher_train={"hidden": [16, 8]}, generator={"widths": [2, 32, 2]})
        obj["distill"]["score_hidden"] = [32, 16]
        cfg = parse_config(obj)
        assert (cfg.teacher_train.hidden, cfg.generator.widths, cfg.distill.score_hidden) == ((16, 8), (2, 32, 2), (32, 16))

    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_fixed_grid_values_take_numbers_only(self, value):
        obj = _base_config()
        obj["distill"]["gen_time_dist"] = {"kind": "fixed-grid", "values": [0.5, value]}
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        assert str(err.value) == f"distill.gen_time_dist.values[1]: expected a number, got {value!r}"


# ---------------------------------------------------------------------------
# checkpoint format


def _net_checkpoint(seed=5, **over) -> Checkpoint:
    net = MlpNet([3, 16, 2], activation="silu", conditioning="raw", seed=seed)
    fields = dict(
        kind="teacher",
        arch=net_arch(net),
        arrays=net.state_dict(),
        step=42,
        rng_state=rng_state_of(np.random.default_rng(7)),
        config_hash="abc123",
        net_form="denoiser",
        extra={"note": 1},
    )
    fields.update(over)
    return Checkpoint(**fields)


def _edit_header(path: Path, edit) -> None:
    """Rewrite a checkpoint file's JSON header in place through ``edit(header)``."""
    raw = path.read_bytes()
    size = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + size])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + size :])


class TestCheckpoint:
    def test_forward_bit_identical_on_100_random_inputs(self, tmp_path):
        ck = _net_checkpoint()
        net = ck.build_net()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, ck)
        net2 = load_checkpoint(path).build_net()
        x = np.random.default_rng(0).normal(size=(100, 3))
        assert np.array_equal(net(x).data, net2(x).data)

    def test_metadata_round_trips(self, tmp_path):
        ck = _net_checkpoint()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, ck)
        back = load_checkpoint(path)
        assert back.kind == "teacher"
        assert back.step == 42
        assert back.config_hash == "abc123"
        assert back.net_form == "denoiser"
        assert back.extra == {"note": 1}
        assert back.arch == ck.arch

    def test_arrays_exact_including_non_contiguous(self, tmp_path):
        arr = np.arange(24.0).reshape(4, 6)[:, ::2]  # non-contiguous view
        ck = _net_checkpoint(arrays={"w": arr}, arch={}, kind="raw")
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, ck)
        back = load_checkpoint(path)
        assert np.array_equal(back.arrays["w"], arr)
        assert back.arrays["w"].dtype == np.float64

    def test_flipped_version_byte_names_both_versions(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, _net_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[7] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=r"version 9.*version 1"):
            load_checkpoint(path)

    def test_truncated_file_is_an_explicit_error(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, _net_checkpoint())
        raw = path.read_bytes()
        for cut in (3, 12, len(raw) // 2, len(raw) - 1):
            short = tmp_path / "short.ckpt"
            short.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(short)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, _net_checkpoint())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(b"NOTACKPT" + bytes(64))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["kind", "arch", "arrays"])
    def test_header_without_a_required_key_rejected(self, tmp_path, key):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, _net_checkpoint())
        _edit_header(path, lambda header: header.pop(key))
        with pytest.raises(CheckpointError, match=f"lacks {key}"):
            load_checkpoint(path)

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(MAGIC + bytes([1]) + (2).to_bytes(8, "little") + b"[]")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["name", "shape"])
    def test_manifest_entry_without_name_or_shape_rejected(self, tmp_path, key):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, _net_checkpoint())
        _edit_header(path, lambda header: header["arrays"][1].pop(key))
        with pytest.raises(CheckpointError, match="manifest entry 1 lacks a name or shape"):
            load_checkpoint(path)

    def test_arch_without_a_constructor_key_rejected(self):
        arch = net_arch(MlpNet([3, 16, 2]))
        del arch["conditioning"]
        with pytest.raises(CheckpointError, match="arch lacks conditioning"):
            _net_checkpoint(arch=arch).build_net()

    def test_config_hash_guard(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, _net_checkpoint())
        load_checkpoint(path, expect_config_hash="abc123")  # matching: fine
        with pytest.raises(CheckpointError, match="force"):
            load_checkpoint(path, expect_config_hash="zzz")
        back = load_checkpoint(path, expect_config_hash="zzz", force=True)
        assert back.config_hash == "abc123"

    def test_rng_state_restores_draw_stream(self):
        rng = np.random.default_rng(123)
        rng.normal(size=17)
        state = json.loads(json.dumps(rng_state_of(rng)))  # through JSON
        expect = rng.normal(size=5)
        got = restore_rng(state).normal(size=5)
        assert np.array_equal(expect, got)


# ---------------------------------------------------------------------------
# SVG charts


class TestSvg:
    def test_line_chart_is_well_formed_and_deterministic(self):
        xs = np.arange(0, 900, 100)
        ys = np.exp(-xs / 300.0)
        a = line_chart([("a <b&c>", xs, ys)], title="t", x_label="x", y_label="y")
        b = line_chart([("a <b&c>", xs, ys)], title="t", x_label="x", y_label="y")
        assert a == b
        ET.fromstring(a)  # parses as XML; labels were escaped

    def test_line_chart_drops_non_finite_points(self):
        ys = np.array([1.0, np.nan, 3.0, np.inf, 5.0])
        text = line_chart([("s", np.arange(5.0), ys)])
        ET.fromstring(text)
        poly = [ln for ln in text.splitlines() if "polyline" in ln][0]
        assert poly.count(",") == 3  # three surviving points

    def test_log_scale_drops_non_positive(self):
        ys = np.array([1.0, -2.0, 0.0, 4.0])
        text = line_chart([("s", np.arange(4.0), ys)], log_y=True)
        poly = [ln for ln in text.splitlines() if "polyline" in ln][0]
        assert poly.count(",") == 2

    def test_scatter_plot_renders_points(self):
        pts = np.random.default_rng(0).normal(size=(50, 2))
        text = scatter_plot([("g", pts)], title="s")
        ET.fromstring(text)
        assert text.count("<circle") == 50


# ---------------------------------------------------------------------------
# CLI


def _write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


@pytest.fixture
def distill_cfg(tmp_path):
    cfg = _base_config()
    cfg["distill"].update(
        {"batch_size": 64, "eval_interval": 5, "eval_samples": 128,
         "final_eval_samples": 256, "score_lr": 1e-3, "gen_lr": 1e-3}
    )
    path = tmp_path / "run.json"
    _write_json(path, cfg)
    return path


class TestCli:
    def test_gradcheck_exit_zero_and_report(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gradcheck", "--probes", "5", "--out", str(out)]) == 0
        report = json.loads((out / "reports.json").read_text())
        assert report["algorithm"] == "pcg64"
        assert report["all_passed"] is True
        assert any("gradcheck-silu" in c["name"] for c in report["checks"])
        assert "[PASS" in capsys.readouterr().out

    def test_gradcheck_command_is_verify_check_gradcheck(self, tmp_path):
        assert main(["gradcheck", "--probes", "3", "--seed", "4", "--out", str(tmp_path / "a")]) == 0
        assert main(["verify", "--check", "gradcheck", "--probes", "3", "--seed", "4",
                     "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "reports.json").read_bytes() == (tmp_path / "b" / "reports.json").read_bytes()

    def test_verify_theorem1_reports_byte_identical(self, tmp_path):
        args = ["verify", "--check", "theorem1", "--seed", "7",
                "--n-mc", "2048", "--replicates", "8"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "reports.json").read_bytes()
        b = (tmp_path / "b" / "reports.json").read_bytes()
        assert a == b

    def test_verify_score_projection(self, tmp_path):
        code = main(["verify", "--check", "score-projection", "--seed", "2",
                     "--n-mc-projection", "50000", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "reports.json").read_text())
        assert len(report["checks"]) == 3
        assert {c["name"].split("[")[0] for c in report["checks"]} == {"score-projection"}

    def test_distill_end_to_end_artifacts(self, tmp_path, distill_cfg):
        out = tmp_path / "run"
        assert main(["distill", "--config", str(distill_cfg), "--out", str(out)]) == 0
        for name in (
            "config_echo.json", "metrics.csv", "run_summary.json",
            "generator.ckpt", "online.ckpt",
            "samples_before.csv", "samples_after.csv", "reference.csv",
            "scatter_before.svg", "scatter_after.svg",
            "curves_loss.svg", "curves_metrics.svg",
        ):
            assert (out / name).is_file(), name
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,phase1_loss,phase2_loss,mmd,w2_gauss,mode_coverage,seconds"
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["algorithm"] == "pcg64"
        assert summary["seed"] == 3

    def test_distill_rerun_and_echo_are_byte_identical(self, tmp_path, distill_cfg):
        out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
        assert main(["distill", "--config", str(distill_cfg), "--out", str(out1)]) == 0
        assert main(["distill", "--config", str(distill_cfg), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        # the echoed config alone reproduces the run
        assert main(["distill", "--config", str(out1 / "config_echo.json"),
                     "--out", str(out3)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out3 / "metrics.csv").read_bytes()
        assert (out1 / "config_echo.json").read_bytes() == (out3 / "config_echo.json").read_bytes()

    def test_teacher_train_then_eval_reproduces_golden_loss(self, tmp_path):
        cfg = {
            "tag": "tt",
            "seed": 5,
            "data": dict(TWO_MODE),
            "teacher_train": {"steps": 60, "log_interval": 20,
                              "batch_size": 64, "val_samples": 256},
        }
        cfg_path = tmp_path / "teacher.json"
        _write_json(cfg_path, cfg)
        out = tmp_path / "teacher"
        assert main(["train-teacher", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "teacher.ckpt").is_file()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == MetricRow.CSV_HEADER

        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(out / "teacher.ckpt"),
                     "--out", str(ev)]) == 0
        report = json.loads((ev / "eval_report.json").read_text())
        assert report["validation"]["ok"] is True
        assert report["validation"]["abs_diff"] <= 1e-12

    def test_distill_consumes_teacher_checkpoint(self, tmp_path):
        teacher_cfg = tmp_path / "teacher.json"
        _write_json(teacher_cfg, {
            "seed": 5, "data": dict(TWO_MODE),
            "teacher_train": {"steps": 60, "log_interval": 60,
                              "batch_size": 64, "val_samples": 128},
        })
        tdir = tmp_path / "teacher"
        assert main(["train-teacher", "--config", str(teacher_cfg), "--out", str(tdir)]) == 0

        run_cfg = _base_config()
        run_cfg["teacher"] = {"kind": "checkpoint", "path": "teacher/teacher.ckpt"}
        run_cfg["distill"].update({"gen_steps": 5, "batch_size": 32,
                                   "eval_samples": 64, "final_eval_samples": 64})
        cfg_path = tmp_path / "run.json"
        _write_json(cfg_path, run_cfg)
        out = tmp_path / "run"
        assert main(["distill", "--config", str(cfg_path), "--out", str(out)]) == 0

    def test_net_form_mismatch_is_a_validation_error(self, tmp_path, capsys):
        teacher_cfg = tmp_path / "teacher.json"
        _write_json(teacher_cfg, {
            "seed": 5, "data": dict(TWO_MODE),
            "teacher_train": {"steps": 20, "log_interval": 20,
                              "batch_size": 64, "val_samples": 128},
        })
        tdir = tmp_path / "teacher"
        assert main(["train-teacher", "--config", str(teacher_cfg), "--out", str(tdir)]) == 0
        run_cfg = _base_config()
        run_cfg["teacher"] = {"kind": "checkpoint", "path": "teacher/teacher.ckpt"}
        run_cfg["distill"]["loss_form"] = "score"
        cfg_path = tmp_path / "run.json"
        _write_json(cfg_path, run_cfg)
        assert main(["distill", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 1
        assert "loss_form" in capsys.readouterr().err

    def test_malformed_config_prints_key_path_and_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        _write_json(cfg_path, {"distill": {"gen_steps": 5, "distanse": {"tag": "l2"}}})
        assert main(["distill", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "distill.distanse" in capsys.readouterr().err

    def test_missing_sections_exit_1(self, tmp_path):
        cfg_path = tmp_path / "empty.json"
        _write_json(cfg_path, {"tag": "x"})
        assert main(["distill", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    def test_bad_flags_and_commands_exit_1(self, capsys):
        assert main(["distill", "--nonsense"]) == 1
        assert main(["bogus"]) == 1
        capsys.readouterr()

    def test_divergence_halt_exits_2_keeping_partial_artifacts(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["distill"].update({"divergence_threshold": 1e-9, "batch_size": 32,
                               "final_eval_samples": 64})
        cfg_path = tmp_path / "halt.json"
        _write_json(cfg_path, cfg)
        out = tmp_path / "halt"
        assert main(["distill", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert (out / "config_echo.json").is_file()
        assert (out / "metrics.csv").is_file()
        assert "halted" in capsys.readouterr().err

    def test_init_from_checks_config_hash(self, tmp_path, distill_cfg):
        out1 = tmp_path / "first"
        assert main(["distill", "--config", str(distill_cfg), "--out", str(out1)]) == 0
        other = json.loads(distill_cfg.read_text())
        other["seed"] = 99
        other_path = tmp_path / "other.json"
        _write_json(other_path, other)
        ck = str(out1 / "generator.ckpt")
        assert main(["distill", "--config", str(other_path),
                     "--out", str(tmp_path / "o1"), "--init-from", ck]) == 1
        assert main(["distill", "--config", str(other_path),
                     "--out", str(tmp_path / "o2"), "--init-from", ck, "--force"]) == 0

    def test_eval_generator_checkpoint_reports_metrics(self, tmp_path, distill_cfg):
        out = tmp_path / "run"
        assert main(["distill", "--config", str(distill_cfg), "--out", str(out)]) == 0
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(out / "generator.ckpt"),
                     "--samples", "512", "--seed", "1", "--out", str(ev)]) == 0
        report = json.loads((ev / "eval_report.json").read_text())
        assert report["kind"] == "generator"
        assert 0.0 <= report["metrics"]["mode_coverage"] <= 1.0
        assert (ev / "scatter.svg").is_file()

    @pytest.mark.parametrize("tag", ["mlp", "denoiser-as-generator"])
    def test_generator_checkpoint_samples_like_the_generator_in_memory(self, tmp_path, distill_cfg, tag):
        obj = json.loads(distill_cfg.read_text())
        obj["generator"] = {"tag": tag}
        _write_json(distill_cfg, obj)
        out = tmp_path / "run"
        assert main(["distill", "--config", str(distill_cfg), "--out", str(out)]) == 0
        cfg = load_config(distill_cfg)
        spec = cfg.data["spec"]
        res = run_distillation(cfg.distill, spec, spec, cfg.seed, gspec=cfg.generator, dspec=cfg.diffusion)
        gen = generator_from_checkpoint(load_checkpoint(out / "generator.ckpt"))
        assert gen.t_star == res.generator.t_star == (2.5 if tag != "mlp" else None)
        for n in (300, 3000):  # one block, and blocks on the pool
            a, b = gen.sample(np.random.default_rng(n), n), res.generator.sample(np.random.default_rng(n), n)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", ["arrays", "t_star", "arch.widths", "tag"])
    def test_eval_of_a_malformed_generator_checkpoint_exits_1(self, tmp_path, distill_cfg, capsys, case):
        obj = json.loads(distill_cfg.read_text())
        obj["generator"] = {"tag": "denoiser-as-generator"}
        _write_json(distill_cfg, obj)
        out = tmp_path / "run"
        assert main(["distill", "--config", str(distill_cfg), "--out", str(out)]) == 0
        edit, message = {
            "arrays": (lambda header: header.pop("arrays"), "header lacks arrays"),
            "t_star": (lambda header: header["extra"].pop("t_star"), "lacks extra.t_star"),
            "arch.widths": (lambda header: header["arch"].pop("widths"), "arch lacks widths"),
            "tag": (lambda header: header["extra"].update(tag="flow"), "unknown generator tag 'flow'"),
        }[case]
        _edit_header(out / "generator.ckpt", edit)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "generator.ckpt"), "--out", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["ring8_teacher.ckpt", "ring8_csv_teacher.ckpt"])
    def test_shipped_teacher_checkpoints_replay_their_golden_loss(self, tmp_path, name):
        # written by tests/data/make_ring8_teacher.py before the csv and gmm
        # draws of train-teacher went through distill._reference_samples
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(DATA / name), "--out", str(ev)]) == 0
        report = json.loads((ev / "eval_report.json").read_text())
        assert report["validation"]["ok"] is True
        assert report["validation"]["tolerance"] == GOLDEN_LOSS_TOL

    def test_train_teacher_reads_csv_data_beside_its_config(self, tmp_path):
        # run from another working directory: the data path and the
        # validation replay both resolve from the config's directory
        shutil.copyfile(DATA / "ring8_points.csv", tmp_path / "pts.csv")
        cfg_path = tmp_path / "teacher.json"
        _write_json(cfg_path, {
            "seed": 5, "data": {"kind": "csv", "path": "pts.csv"},
            "teacher_train": {"steps": 20, "log_interval": 20, "batch_size": 64, "val_samples": 128},
        })
        assert main(["train-teacher", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert main(["eval", "--checkpoint", str(tmp_path / "teacher.ckpt"), "--out", str(tmp_path / "ev")]) == 0

    def test_eval_replays_a_csv_teacher_written_to_another_directory(self, tmp_path, monkeypatch):
        # the checkpoint records the csv path from its own directory, so eval
        # finds the csv whatever --out train-teacher had, from any directory
        (tmp_path / "cfg").mkdir()
        shutil.copyfile(DATA / "ring8_points.csv", tmp_path / "cfg" / "pts.csv")
        _write_json(tmp_path / "cfg" / "teacher.json", {
            "seed": 5, "data": {"kind": "csv", "path": "pts.csv"},
            "teacher_train": {"steps": 20, "log_interval": 20, "batch_size": 64, "val_samples": 128},
        })
        monkeypatch.chdir(tmp_path)
        assert main(["train-teacher", "--config", "cfg/teacher.json", "--out", "elsewhere/run"]) == 0
        ck = load_checkpoint(tmp_path / "elsewhere" / "run" / "teacher.ckpt")
        assert ck.extra["validation"]["protocol"]["data"]["path"] == "../../cfg/pts.csv"
        monkeypatch.chdir(tmp_path / "cfg")
        assert main(["eval", "--checkpoint", "../elsewhere/run/teacher.ckpt", "--out", str(tmp_path / "ev")]) == 0
        report = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        assert report["validation"]["abs_diff"] == 0.0

    def test_plot_regenerates_identical_charts(self, tmp_path, distill_cfg):
        out = tmp_path / "run"
        assert main(["distill", "--config", str(distill_cfg), "--out", str(out)]) == 0
        originals = {
            name: (out / name).read_bytes()
            for name in ("curves_loss.svg", "curves_metrics.svg",
                         "scatter_before.svg", "scatter_after.svg")
        }
        for name in originals:
            (out / name).unlink()
        assert main(["plot", "--run", str(out)]) == 0
        for name, blob in originals.items():
            assert (out / name).read_bytes() == blob, name

    def test_plot_missing_run_dir_exits_1(self, tmp_path, capsys):
        assert main(["plot", "--run", str(tmp_path / "nothing")]) == 1
        capsys.readouterr()
