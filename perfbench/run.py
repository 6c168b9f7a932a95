"""Run one workload of the simdistill benchmark and print its result.

    python3 perfbench/run.py --workload ring8-distill --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``. The
line before it records the environment. A fuller record, with the raw series
and the checks' figures, goes to ``perfbench/results/``. Exit code 0 means
the run finished; a failed check still exits 0 with ``"correct": false``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are sized before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def process_age() -> float:
    """Seconds since this process started (clock-tick resolution, 10 ms)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def environment() -> dict:
    import numpy
    import scipy
    from simdistill import kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.backend_name(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "simdistill" / "__init__.py").is_file():
        print(f"error: no package source at {src}; run from a simdistill checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = W.Run(args.seed, args.seconds, bool(args.trace), workdir, process_age)
    try:
        W.WORKLOADS[args.workload](run)
        layers = W.layer_metrics(run) if args.trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = W.PER_LAYER if args.trace else W.END_TO_END
    values = layers if args.trace else run.values
    missing = sorted(set(table) - set(values))
    errors = run.errors + [f"metric {name} was not measured" for name in missing]
    result = {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in table.items()},
    }
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "errors": errors,
        "end_to_end": run.values,
        "info": run.info,
        "series": dict(run.series),
        "result": result,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
