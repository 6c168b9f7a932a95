"""Regenerate the frozen 2-D Gaussian MMD² self-null fixture.

Same protocol as the ring-8 fixture but for the single-mode Gaussian used by
the trained-teacher end-to-end test: pairs of independent 2048-sample draws,
bandwidth ladder frozen from the first pair, unbiased MMD² distribution
recorded. The 99th percentile defines the pass threshold for a generator
distilled from a *trained* (not analytic) teacher.

Run from the repository root:

    python3 tests/data/make_gauss2d_mmd_null.py

``--out PATH`` writes elsewhere and ``--replicates N`` draws N pairs, so a
regenerated fixture can be compared with the committed one without
overwriting it.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from simdistill.metrics import median_heuristic_bandwidths, mmd_rbf
from simdistill.oracles import GmmSpec, sample_clean
from simdistill.rng import ALGORITHM, make_rng

SEED = 2027
N = 2_048
REPLICATES = 100
MEAN = [1.0, -0.5]
SCALE = 0.7
OUT = Path(__file__).with_name("gauss2d_mmd_null.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT, help=f"output path (default {OUT.name} here)")
    parser.add_argument("--replicates", type=int, default=REPLICATES, help=f"pairs drawn (default {REPLICATES})")
    args = parser.parse_args()
    if args.replicates < 2:
        parser.error("--replicates must be at least 2 (the null_std is a sample std)")
    spec = GmmSpec([1.0], [MEAN], SCALE)
    rng = make_rng(SEED)
    first_x = sample_clean(spec, rng, N)
    first_y = sample_clean(spec, rng, N)
    bandwidths = median_heuristic_bandwidths(first_x, first_y)

    values = np.empty(args.replicates)
    t0 = time.perf_counter()
    for i in range(args.replicates):
        x = first_x if i == 0 else sample_clean(spec, rng, N)
        y = first_y if i == 0 else sample_clean(spec, rng, N)
        values[i] = mmd_rbf(x, y, bandwidths=bandwidths)
        if (i + 1) % 20 == 0:
            print(f"{i + 1}/{args.replicates} replicates, {time.perf_counter() - t0:.0f}s", flush=True)

    fixture = {
        "algorithm": ALGORITHM,
        "seed": SEED,
        "n": N,
        "replicates": args.replicates,
        "gaussian": {"mean": MEAN, "scale": SCALE},
        "bandwidths": bandwidths.tolist(),
        "null_mean": float(values.mean()),
        "null_std": float(values.std(ddof=1)),
        "null_q99": float(np.quantile(values, 0.99)),
        "null_max": float(values.max()),
    }
    args.out.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    print(json.dumps(fixture, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
