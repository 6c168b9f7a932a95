"""Lossless checkpoints: a JSON header plus a little-endian float64 payload.

Layout::

    bytes 0..6    magic b"SIMDCKP"
    byte  7       format version
    bytes 8..15   header length H, unsigned little-endian
    H bytes       UTF-8 JSON header (architecture echo, array manifest,
                  training step, rng state, config hash, extras)
    rest          the arrays named in the manifest, concatenated in order,
                  float64 little-endian

Parameters survive a save/load round trip bit for bit, so forward passes of
a reloaded network are exactly reproducible. Loading is all-or-nothing: any
structural problem (bad magic, unsupported version, truncation, a missing
header or manifest key) raises before any state is handed out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nnkit import MlpNet

MAGIC = b"SIMDCKP"
VERSION = 1


class CheckpointError(ValueError):
    """Structural problem with a checkpoint file."""


@dataclass
class Checkpoint:
    """In-memory form of a checkpoint file."""

    kind: str                      # "teacher" | "generator" | "online"
    arch: dict                     # MlpNet constructor echo
    arrays: dict[str, np.ndarray]  # named parameter tensors
    step: int = 0
    rng_state: dict | None = None
    config_hash: str = ""
    net_form: str | None = None    # "denoiser" | "score" for field networks
    extra: dict = field(default_factory=dict)
    version: int = VERSION

    def build_net(self) -> MlpNet:
        """Reconstruct the network and load its parameters exactly."""
        missing = [key for key in ("widths", "activation", "conditioning") if key not in self.arch]
        if missing:
            raise CheckpointError(f"checkpoint arch lacks {', '.join(missing)}")
        net = MlpNet(
            list(self.arch["widths"]),
            activation=self.arch["activation"],
            conditioning=self.arch["conditioning"],
            zero_final=self.arch.get("zero_final", False),
            seed=self.arch.get("seed", 0),
        )
        net.load_state_dict(self.arrays)
        return net


def net_arch(net: MlpNet) -> dict:
    return {
        "widths": list(net.widths),
        "activation": net.activation,
        "conditioning": net.conditioning,
        "zero_final": net.zero_final,
        "seed": net.seed,
    }


def rng_state_of(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    # PCG64 carries 128-bit integers; store them as strings for JSON safety
    return json.loads(json.dumps(state, default=str))


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator from a saved state; draws continue exactly."""
    rng = np.random.default_rng(0)
    fixed = dict(state)
    fixed["state"] = {k: int(v) for k, v in state["state"].items()}
    rng.bit_generator.state = fixed
    return rng


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    names = sorted(ckpt.arrays)
    manifest = []
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(np.asarray(ckpt.arrays[name], dtype="<f8"))
        manifest.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = {
        "version": VERSION,
        "kind": ckpt.kind,
        "arch": ckpt.arch,
        "arrays": manifest,
        "step": ckpt.step,
        "rng_state": ckpt.rng_state,
        "config_hash": ckpt.config_hash,
        "net_form": ckpt.net_form,
        "extra": ckpt.extra,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(
    path: str | Path,
    expect_config_hash: str | None = None,
    force: bool = False,
) -> Checkpoint:
    """Read a checkpoint; all structure is validated before state escapes.

    ``expect_config_hash`` guards resuming under a different configuration:
    a mismatch is refused unless ``force`` is set.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if len(raw) < len(MAGIC) + 9:
        raise CheckpointError(f"{path}: truncated checkpoint (only {len(raw)} bytes)")
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = raw[len(MAGIC)]
    if version != VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format version {version} is not supported by "
            f"this reader (it reads version {VERSION})"
        )
    off = len(MAGIC) + 1
    header_len = int.from_bytes(raw[off : off + 8], "little")
    off += 8
    if len(raw) < off + header_len:
        raise CheckpointError(f"{path}: truncated checkpoint (header cut short)")
    try:
        header = json.loads(raw[off : off + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: corrupt checkpoint header: {err}") from err
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt checkpoint header: not a JSON object")
    if header.get("version") != version:
        raise CheckpointError(
            f"{path}: header version {header.get('version')} disagrees with "
            f"the container version {version}"
        )
    missing = [key for key in ("kind", "arch", "arrays") if key not in header]
    if missing:
        raise CheckpointError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    off += header_len
    arrays: dict[str, np.ndarray] = {}
    for i, entry in enumerate(header["arrays"]):
        if not isinstance(entry, dict) or "name" not in entry or "shape" not in entry:
            raise CheckpointError(f"{path}: array manifest entry {i} lacks a name or shape")
        count = int(np.prod(entry["shape"], dtype=np.int64)) if entry["shape"] else 1
        nbytes = count * 8
        if len(raw) < off + nbytes:
            raise CheckpointError(
                f"{path}: truncated checkpoint (array {entry['name']!r} cut short)"
            )
        arr = np.frombuffer(raw[off : off + nbytes], dtype="<f8").reshape(entry["shape"])
        arrays[entry["name"]] = arr.astype(np.float64, copy=True)
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes after the payload")
    ckpt = Checkpoint(
        kind=header["kind"],
        arch=header["arch"],
        arrays=arrays,
        step=header.get("step", 0),
        rng_state=header.get("rng_state"),
        config_hash=header.get("config_hash", ""),
        net_form=header.get("net_form"),
        extra=header.get("extra", {}),
        version=version,
    )
    if (
        expect_config_hash is not None
        and ckpt.config_hash != expect_config_hash
        and not force
    ):
        raise CheckpointError(
            f"{path}: checkpoint was written under config {ckpt.config_hash!r} "
            f"but this run is configured as {expect_config_hash!r}; pass force "
            f"to use it anyway"
        )
    return ckpt
