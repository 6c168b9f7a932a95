"""Run configuration: strict JSON in, validated library objects out.

Every key is checked; an unknown or ill-typed key fails with its full path
(e.g. ``distill.score_time_dist.p_std``) so a typo never silently falls back
to a default. A config may name a preset, which supplies defaults that
explicit keys override. The parsed result serializes back to a fully
resolved dict — every default materialized — and that resolved form is a
fixed point of the parser, which is what makes run directories
self-describing.

The ``diffusion``, ``generator``, ``distill`` and ``teacher_train`` sections
have no schema of their own: the fields of their dataclasses name the keys,
their type hints the JSON types and their defaults the defaults, for the
parser and the serializer alike.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..diffusion import DiffusionSpec, TimeDistribution, WeightingFn
from ..distances import DistanceFn, default_pseudo_huber_c
from ..distill import DistillConfig, GeneratorSpec
from ..oracles import GmmSpec


class ConfigError(ValueError):
    """Configuration rejection carrying the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# Presets supply defaults only; any explicit key wins. "edm-cifar" echoes the
# image-scale recipe (denoiser reused as the generator, small learning rates,
# batch 256); "desk-2d" is the 2-D working setup (plain latent->data network,
# larger learning rates, batch 512).
PRESETS: dict[str, dict] = {
    "edm-cifar": {
        "generator": {"tag": "denoiser-as-generator", "t_star": 2.5},
        "distill": {
            "score_lr": 1e-5,
            "gen_lr": 1e-5,
            "batch_size": 256,
            "ratio": 2,
        },
    },
    "desk-2d": {
        "generator": {"tag": "mlp", "latent_dim": 2},
        "distill": {
            "score_lr": 1e-3,
            "gen_lr": 1e-3,
            "gen_lr_decay": "cosine",
            "batch_size": 512,
        },
    },
}

# ---------------------------------------------------------------------------
# typed extraction helpers


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(obj: dict, path: str, allowed) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown key")


def _get(obj: dict, path: str, key: str, kind, default):
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(_join(path, key), "missing required key")
        return default
    val = obj[key]
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(_join(path, key), f"expected a number, got {val!r}")
        return float(val)
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(_join(path, key), f"expected an integer, got {val!r}")
        return val
    if kind is bool:
        if not isinstance(val, bool):
            raise ConfigError(_join(path, key), f"expected true/false, got {val!r}")
        return val
    if kind is str:
        if not isinstance(val, str):
            raise ConfigError(_join(path, key), f"expected a string, got {val!r}")
        return val
    if kind is list:
        if not isinstance(val, list):
            raise ConfigError(_join(path, key), f"expected a list, got {val!r}")
        return val
    if kind is dict:
        if not isinstance(val, dict):
            raise ConfigError(_join(path, key), f"expected an object, got {val!r}")
        return val
    raise AssertionError(kind)


_REQUIRED = object()


def _check_items(obj: dict, path: str, key: str, kind) -> None:
    """Raise unless each element of the list at ``key`` is a ``kind`` value to ``_get``."""
    for i, item in enumerate(obj[key]):
        name = f"{key}[{i}]"
        _get({name: item}, path, name, kind, _REQUIRED)


def _build(path: str, factory, **kwargs):
    """Construct a library object, re-raising its ValueError with the path."""
    try:
        return factory(**kwargs)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


# ---------------------------------------------------------------------------
# section parsers and their serializers


def _parse_distance(obj: dict, path: str) -> DistanceFn:
    _check_keys(obj, path, {"tag", "alpha", "beta", "delta", "c"})
    tag = _get(obj, path, "tag", str, _REQUIRED)
    if tag == "l2":
        _check_keys(obj, path, {"tag"})
        return DistanceFn.l2()
    if tag == "power":
        _check_keys(obj, path, {"tag", "alpha"})
        return _build(path, DistanceFn.power, alpha=_get(obj, path, "alpha", int, _REQUIRED))
    if tag == "exp_power":
        _check_keys(obj, path, {"tag", "alpha", "beta"})
        return _build(
            path, DistanceFn.exp_power,
            alpha=_get(obj, path, "alpha", int, _REQUIRED),
            beta=_get(obj, path, "beta", float, _REQUIRED),
        )
    if tag == "l1":
        _check_keys(obj, path, {"tag"})
        return DistanceFn.l1()
    if tag == "huber":
        _check_keys(obj, path, {"tag", "delta"})
        return _build(path, DistanceFn.huber, delta=_get(obj, path, "delta", float, _REQUIRED))
    if tag == "pseudo_huber":
        _check_keys(obj, path, {"tag", "c"})
        return _build(path, DistanceFn.pseudo_huber, c=_get(obj, path, "c", float, _REQUIRED))
    raise ConfigError(_join(path, "tag"), f"unknown distance tag {tag!r}")


def _distance_dict(d: DistanceFn) -> dict:
    out = {"tag": d.tag}
    if d.tag in ("power", "exp_power"):
        out["alpha"] = d.alpha
    if d.tag == "exp_power":
        out["beta"] = d.beta
    if d.tag == "huber":
        out["delta"] = d.delta
    if d.tag == "pseudo_huber":
        out["c"] = d.c
    return out


def _parse_time_dist(obj: dict, path: str) -> TimeDistribution:
    kind = _get(obj, path, "kind", str, _REQUIRED)
    if kind == "log-normal":
        _check_keys(obj, path, {"kind", "p_mean", "p_std"})
        return _build(
            path, TimeDistribution.log_normal,
            p_mean=_get(obj, path, "p_mean", float, _REQUIRED),
            p_std=_get(obj, path, "p_std", float, _REQUIRED),
        )
    if kind == "karr-uniform":
        _check_keys(obj, path, {"kind", "k_max"})
        return _build(path, TimeDistribution.karr_uniform, k_max=_get(obj, path, "k_max", int, 800))
    if kind == "fixed-grid":
        _check_keys(obj, path, {"kind", "values"})
        vals = _get(obj, path, "values", list, _REQUIRED)
        _check_items(obj, path, "values", float)
        return _build(path, TimeDistribution.fixed_grid, values=vals)
    raise ConfigError(_join(path, "kind"), f"unknown time distribution kind {kind!r}")


def _time_dist_dict(td: TimeDistribution) -> dict:
    if td.kind == "log-normal":
        return {"kind": td.kind, "p_mean": td.p_mean, "p_std": td.p_std}
    if td.kind == "karr-uniform":
        return {"kind": td.kind, "k_max": td.k_max}
    return {"kind": td.kind, "values": list(td.values)}


def _parse_weighting(obj: dict, path: str) -> WeightingFn:
    kind = _get(obj, path, "kind", str, _REQUIRED)
    if kind == "one":
        _check_keys(obj, path, {"kind"})
        return WeightingFn.one()
    if kind == "edm":
        _check_keys(obj, path, {"kind", "sigma_data"})
        return _build(path, WeightingFn.edm, sigma_data=_get(obj, path, "sigma_data", float, 0.5))
    if kind == "sid":
        _check_keys(obj, path, {"kind", "C"})
        C = _get(obj, path, "C", float, None) if obj.get("C") is not None else None
        return _build(path, WeightingFn.sid, C=C)
    raise ConfigError(_join(path, "kind"), f"unknown weighting kind {kind!r}")


def _weighting_dict(w: WeightingFn) -> dict:
    if w.kind == "edm":
        return {"kind": w.kind, "sigma_data": w.sigma_data}
    if w.kind == "sid":
        return {"kind": w.kind, "C": w.C}
    return {"kind": w.kind}


# ---------------------------------------------------------------------------
# sections whose dataclass is the schema


# field types parsed and serialized by a tagged-union pair above
_TAGGED = {
    DistanceFn: (_parse_distance, _distance_dict),
    TimeDistribution: (_parse_time_dist, _time_dist_dict),
    WeightingFn: (_parse_weighting, _weighting_dict),
}


@dataclass(frozen=True)
class TeacherTrainConfig:
    """The ``teacher_train`` section: denoising score matching of a teacher
    net on the data spec, and the size of its golden validation replay."""

    steps: int = 4000
    lr: float = 1e-3
    batch_size: int = 256
    hidden: tuple[int, ...] = (64, 64)
    net_form: str = "denoiser"
    val_samples: int = 4096
    log_interval: int = 200
    time_dist: TimeDistribution = field(default_factory=lambda: TimeDistribution.log_normal(-1.2, 1.2))
    weighting: WeightingFn = field(default_factory=WeightingFn.edm)

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.net_form not in ("denoiser", "score"):
            raise ConfigError("teacher_train.net_form", f"expected denoiser or score, got {self.net_form!r}")
        if self.steps < 1 or self.lr <= 0 or self.batch_size < 2 or self.val_samples < 2:
            raise ConfigError("teacher_train", "steps/lr/batch_size/val_samples out of range")


def _kind(hint):
    """The ``_get`` kind of a field's type hint; ``float | None`` is a float."""
    if typing.get_origin(hint) is tuple:
        return list
    if typing.get_origin(hint) is not None:
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    return hint


def _parse_fields(cls, obj: dict, path: str, **fallback):
    """Build dataclass ``cls`` from the section ``obj``, keyed by its fields.

    A missing key takes its ``fallback`` value where one is given, else the
    dataclass default; a field with neither is required.
    """
    fields = dataclasses.fields(cls)
    _check_keys(obj, path, {f.name for f in fields})
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        key = f.name
        if key not in obj:
            if key in fallback:
                kwargs[key] = fallback[key]
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(_join(path, key), "missing required key")
        elif hints[key] in _TAGGED:
            parse = _TAGGED[hints[key]][0]
            kwargs[key] = parse(_get(obj, path, key, dict, _REQUIRED), _join(path, key))
        else:
            kind = _kind(hints[key])
            val = _get(obj, path, key, kind, _REQUIRED)
            if kind is list:
                _check_items(obj, path, key, typing.get_args(hints[key])[0])
                val = tuple(val)
            kwargs[key] = val
    return _build(path, cls, **kwargs)


def _fields_dict(obj) -> dict:
    """The resolved JSON form of a dataclass that ``_parse_fields`` builds."""
    out = {}
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        if type(val) in _TAGGED:
            val = _TAGGED[type(val)][1](val)
        out[f.name] = list(val) if isinstance(val, tuple) else val
    return out


def _parse_gmm(obj: dict, path: str) -> GmmSpec:
    _check_keys(obj, path, {"kind", "weights", "means", "scales"})
    weights = _get(obj, path, "weights", list, _REQUIRED)
    means = _get(obj, path, "means", list, _REQUIRED)
    scales = obj.get("scales", _REQUIRED)
    if scales is _REQUIRED:
        raise ConfigError(_join(path, "scales"), "missing required key")
    try:
        return GmmSpec(np.asarray(weights, float), np.asarray(means, float), np.asarray(scales, float))
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


def _gmm_dict(g: GmmSpec) -> dict:
    return {
        "kind": "gmm",
        "weights": g.weights.tolist(),
        "means": g.means.tolist(),
        "scales": g.scales.tolist(),
    }


def _parse_teacher(obj: dict, path: str, base_dir: Path) -> dict:
    kind = _get(obj, path, "kind", str, _REQUIRED)
    if kind == "gmm":
        return {"kind": "gmm", "spec": _parse_gmm(obj, path)}
    if kind == "checkpoint":
        _check_keys(obj, path, {"kind", "path"})
        rel = _get(obj, path, "path", str, _REQUIRED)
        return {"kind": "checkpoint", "path": str((base_dir / rel) if not Path(rel).is_absolute() else Path(rel)), "raw_path": rel}
    raise ConfigError(_join(path, "kind"), f"unknown teacher kind {kind!r} (expected gmm or checkpoint)")


def _teacher_dict(t: dict) -> dict:
    if t["kind"] == "gmm":
        return _gmm_dict(t["spec"])
    return {"kind": "checkpoint", "path": t["raw_path"]}


def _csv_dim(path: Path, key_path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
    except OSError as err:
        raise ConfigError(key_path, f"cannot read sample file {path}: {err}") from err
    cols = [c for c in first.strip().split(",") if c]
    if not cols:
        raise ConfigError(key_path, f"sample file {path} is empty")
    return len(cols)


def _parse_data(obj: dict, path: str, base_dir: Path) -> dict:
    kind = _get(obj, path, "kind", str, _REQUIRED)
    if kind == "gmm":
        spec = _parse_gmm(obj, path)
        return {"kind": "gmm", "spec": spec, "dim": spec.dim}
    if kind == "csv":
        _check_keys(obj, path, {"kind", "path"})
        rel = _get(obj, path, "path", str, _REQUIRED)
        full = (base_dir / rel) if not Path(rel).is_absolute() else Path(rel)
        return {
            "kind": "csv",
            "path": str(full),
            "raw_path": rel,
            "dim": _csv_dim(full, _join(path, "path")),
        }
    raise ConfigError(_join(path, "kind"), f"unknown data kind {kind!r} (expected gmm or csv)")


def _data_dict(d: dict) -> dict:
    if d["kind"] == "gmm":
        return _gmm_dict(d["spec"])
    return {"kind": "csv", "path": d["raw_path"]}


# ---------------------------------------------------------------------------
# the top-level config


_TOP_KEYS = {
    "tag", "seed", "out_dir", "preset", "diffusion", "generator",
    "distill", "teacher", "data", "teacher_train",
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


@dataclass
class RunConfig:
    """A fully validated run description."""

    tag: str
    seed: int
    out_dir: str
    preset: str | None
    diffusion: DiffusionSpec
    generator: GeneratorSpec
    distill: DistillConfig | None
    teacher: dict | None
    data: dict | None
    teacher_train: TeacherTrainConfig | None

    def resolved(self) -> dict:
        """Every default materialized; a fixed point of ``parse_config``."""
        out = {
            "tag": self.tag,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "diffusion": _fields_dict(self.diffusion),
            "generator": _fields_dict(self.generator),
        }
        if self.preset is not None:
            out["preset"] = self.preset
        if self.distill is not None:
            out["distill"] = _fields_dict(self.distill)
        if self.teacher is not None:
            out["teacher"] = _teacher_dict(self.teacher)
        if self.data is not None:
            out["data"] = _data_dict(self.data)
        if self.teacher_train is not None:
            out["teacher_train"] = _fields_dict(self.teacher_train)
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.resolved(), indent=2, sort_keys=True) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Short digest of the resolved config; stamped into checkpoints."""
    return hashlib.blake2b(cfg.canonical_json().encode(), digest_size=8).hexdigest()


def parse_config(obj: dict, base_dir: str | Path = ".") -> RunConfig:
    base_dir = Path(base_dir)
    if not isinstance(obj, dict):
        raise ConfigError("", f"top level must be an object, got {type(obj).__name__}")
    _check_keys(obj, "", _TOP_KEYS)
    preset = _get(obj, "", "preset", str, None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError("preset", f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
        obj = _deep_merge(PRESETS[preset], obj)

    data = None
    if "data" in obj:
        data = _parse_data(_get(obj, "", "data", dict, _REQUIRED), "data", base_dir)
    teacher = None
    if "teacher" in obj:
        teacher = _parse_teacher(_get(obj, "", "teacher", dict, _REQUIRED), "teacher", base_dir)

    distill = None
    if "distill" in obj:
        # the transition scale of the default bounded distance tracks the data dim
        data_dim = data["dim"] if data is not None else 2
        distill = _parse_fields(
            DistillConfig, _get(obj, "", "distill", dict, _REQUIRED), "distill",
            distance=DistanceFn.pseudo_huber(default_pseudo_huber_c(data_dim)),
        )
    teacher_train = None
    if "teacher_train" in obj:
        teacher_train = _parse_fields(
            TeacherTrainConfig, _get(obj, "", "teacher_train", dict, _REQUIRED), "teacher_train"
        )

    return RunConfig(
        tag=_get(obj, "", "tag", str, "run"),
        seed=_get(obj, "", "seed", int, 0),
        out_dir=_get(obj, "", "out_dir", str, ""),
        preset=preset,
        diffusion=_parse_fields(DiffusionSpec, _get(obj, "", "diffusion", dict, {}), "diffusion"),
        generator=_parse_fields(GeneratorSpec, _get(obj, "", "generator", dict, {}), "generator"),
        distill=distill,
        teacher=teacher,
        data=data,
        teacher_train=teacher_train,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError("", f"cannot read config {path}: {err}") from err
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("", f"config {path} is not valid JSON: {err}") from err
    return parse_config(obj, base_dir=path.parent)
