"""Regenerate the frozen ring-8 MMD² self-null fixture.

Draws pairs of independent 10^4-sample sets from the 8-mode ring mixture
and records the distribution of the unbiased MMD² between them, with the
bandwidth ladder frozen from the first pair (the same ladder the acceptance
gate must use). The 99th percentile of this null defines the pass threshold
for the end-to-end distillation check.

Run from the repository root:

    python3 tests/data/make_ring8_mmd_null.py

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
from simdistill.oracles import ring_gmm, sample_clean
from simdistill.rng import ALGORITHM, make_rng

SEED = 2026
N = 10_000
REPLICATES = 200
OUT = Path(__file__).with_name("ring8_mmd_null.json")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT, help=f"output path (default {OUT.name} here)")
    parser.add_argument("--replicates", type=int, default=REPLICATES, help=f"pairs drawn (default {REPLICATES})")
    args = parser.parse_args()
    if args.replicates < 2:
        parser.error("--replicates must be at least 2 (the null_std is a sample std)")
    spec = ring_gmm(8, 4.0, 0.3)
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
        "ring": {"n_modes": 8, "radius": 4.0, "scale": 0.3},
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
