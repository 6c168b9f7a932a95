"""Regenerate the shipped ring-8 teacher checkpoints.

Trains two denoisers through the command-line entry point and copies the
resulting checkpoints (each with its embedded golden validation protocol)
next to this script: one on the 8-mode ring mixture itself, and one on the
points of ``ring8_points.csv``, which this script also writes. The companion
test in ``tests/test_harness.py`` replays each checkpoint's validation
protocol and demands the recorded loss to ``GOLDEN_LOSS_TOL``, so a change
to how the data is drawn cannot pass unseen.

Run from the repository root:

    python3 tests/data/make_ring8_teacher.py
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from simdistill.harness.cli import main

SEED = 808
HERE = Path(__file__).parent
POINTS = HERE / "ring8_points.csv"
CHECKPOINTS = {"gmm": HERE / "ring8_teacher.ckpt", "csv": HERE / "ring8_csv_teacher.ckpt"}


def ring_dict() -> dict:
    angles = 2.0 * np.pi * np.arange(8) / 8
    means = (4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)).tolist()
    return {"kind": "gmm", "weights": [0.125] * 8, "means": means, "scales": 0.3}


def write_points(n: int = 512) -> None:
    ring = ring_dict()
    rng = np.random.default_rng(SEED)
    pts = np.array(ring["means"])[rng.integers(0, 8, size=n)] + ring["scales"] * rng.standard_normal((n, 2))
    np.savetxt(POINTS, pts, fmt="%.17g", delimiter=",")


def regenerate() -> None:
    write_points()
    data = {"gmm": ring_dict(), "csv": {"kind": "csv", "path": POINTS.name}}
    for kind, out in CHECKPOINTS.items():
        cfg = {
            "tag": f"ring8-{kind}-teacher",
            "seed": SEED,
            "data": data[kind],
            "teacher_train": {"steps": 4000, "log_interval": 500},
        }
        with tempfile.TemporaryDirectory() as td:
            cfg_path = Path(td) / "teacher.json"
            cfg_path.write_text(json.dumps(cfg))
            shutil.copyfile(POINTS, Path(td) / POINTS.name)
            code = main(["train-teacher", "--config", str(cfg_path), "--out", td])
            if code != 0:
                raise SystemExit(f"train-teacher failed with exit code {code}")
            shutil.copyfile(Path(td) / "teacher.ckpt", out)
        print(f"wrote {out}")


if __name__ == "__main__":
    regenerate()
