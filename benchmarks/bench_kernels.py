"""Throughput comparison of the numba MMD kernel against its numpy twin.

Times the pairwise RBF sums (the O(n²) MMD core) on a ladder of sizes,
checks that the backends agree to round-off, and prints per-call times with
the speedup. The mixture fields have no numba twin, so they are not here.

    python3 benchmarks/bench_kernels.py [--repeats 3] [--quick]

Setting SIMDISTILL_NO_NUMBA=1 makes the package run on the numpy path; this
script imports both MMD implementations directly, so it reports the comparison
regardless of which backend the package itself selected.
"""

import argparse
import time

import numpy as np

from simdistill.kernels import (
    HAS_NUMBA,
    backend_name,
    mmd_sums_numba,
    mmd_sums_numpy,
)
from simdistill.rng import make_rng

BANDWIDTHS = np.array([0.25, 0.5, 1.0, 2.0, 4.0])


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _agreement(a, b) -> float:
    """Max relative gap between two results."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = np.maximum(np.abs(a), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def bench_mmd(sizes, repeats: int) -> None:
    print("\npairwise RBF sums (5-bandwidth ladder, d=2)")
    print(f"{'n':>7s} {'numpy':>10s} {'numba':>10s} {'speedup':>8s} {'rel gap':>9s}")
    rng = make_rng(0)
    for n in sizes:
        X = rng.normal(size=(n, 2))
        Y = rng.normal(size=(n, 2)) + 0.5
        ref = mmd_sums_numpy(X, Y, BANDWIDTHS)
        t_np = _time(lambda: mmd_sums_numpy(X, Y, BANDWIDTHS), repeats)
        if HAS_NUMBA:
            got = mmd_sums_numba(X, Y, BANDWIDTHS)  # includes one jit warmup
            t_nb = _time(lambda: mmd_sums_numba(X, Y, BANDWIDTHS), repeats)
            print(f"{n:7d} {t_np:9.4f}s {t_nb:9.4f}s {t_np / t_nb:7.1f}x {_agreement(ref, got):9.1e}")
        else:
            print(f"{n:7d} {t_np:9.4f}s {'—':>10s} {'—':>8s} {'—':>9s}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed repeats; best is reported")
    parser.add_argument("--quick", action="store_true", help="small sizes only")
    args = parser.parse_args()

    print(f"package backend: {backend_name()} (numba importable: {HAS_NUMBA})")
    if not HAS_NUMBA:
        print("numba is not available; unset SIMDISTILL_NO_NUMBA or install numba "
              "to see the compiled column")
    mmd_sizes = (500, 2000) if args.quick else (500, 2000, 5000)
    bench_mmd(mmd_sizes, args.repeats)


if __name__ == "__main__":
    main()
