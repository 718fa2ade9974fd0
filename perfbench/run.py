#!/usr/bin/env python3
"""myograsp benchmark: one workload per run, closed loop, outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-gru-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads: ``train-gru-paper``, ``train-sru-ada``, ``cli-pipeline`` (``all``
runs each in its own process, one after another).  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` half the
time runs untraced, half with span wrappers installed, then the paper-scale
kernel table runs, and the last line holds the per-layer metrics.  The line
before it is the full record: provenance, every metric, the traced run's
self times and any failed check.  The package is imported from ``src/``;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("train-gru-paper", "train-sru-ada", "cli-pipeline")
# fixed, not inherited from the host, so that hosts stay comparable
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metrics: name -> (unit, the per-workload quantity it reports)
END_TO_END = {
    "setup_s": ("s", "set-up wall time, median of repeats (train: synth, preprocess, "
                     "split, stats, init; cli: checkpoint creation)"),
    "windows_per_s": ("windows/s", "train_windows_per_s through training.train | test windows "
                                   "through myograsp generate + preprocess + evaluate"),
    "infer_windows_per_s": ("windows/s", "val_windows_per_s through training.predict | "
                                         "evaluate_windows_per_s through myograsp evaluate"),
    "predict_peak_mb": ("MB", "peak memory allocated during one training.predict pass "
                              "(validation subset | test split), by tracemalloc"),
    "nrmse": ("1", "val_nrmse after the fixed step count | evaluate's test nrmse"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured operation time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "myograsp", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _blas_threads_in_use():
    """Thread count reported by a loaded OpenBLAS, or None when not queryable."""
    import ctypes

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_set": BLAS_THREADS, "threads_in_use": _blas_threads_in_use()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _spread(samples) -> str:
    """' (median of n, quartiles a-b)' for a list of samples."""
    if not samples:
        return ""
    if len(samples) == 1:
        return " (n=1)"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f" (median of n={len(samples)}, quartiles {q1:.6g}-{q3:.6g})"


def run_one(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import myograsp  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import myograsp from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    e2e, extra, layer, ledger = workloads.run(args.workload, args.seed, args.seconds,
                                              bool(args.trace), workdir)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed),
              "end_to_end": e2e, "extra": extra,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "failed_fraction": ledger.failed / ledger.attempted,
              "errors": ledger.errors}

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (unit, meaning) in END_TO_END.items():
        spread = _spread(extra["samples"].get(name))
        print(f"{name:22s} {e2e[name]:14.6g} {unit:10s} {meaning}{spread}")
    for name, value in extra.items():
        if name != "samples":
            print(f"{name:22s} {value!s:>14}")
    print(f"{'failed_fraction':22s} {record['failed_fraction']:14.6g} 1          "
          f"{ledger.failed} of {ledger.attempted} operations and checks")
    if layer is None:
        shown = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}
    else:
        import tracing
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        moves = {name: m for name, _, _, m in tracing.LAYER_METRICS}
        print("# per-layer metrics (expected to move)")
        for name, _, _, _ in tracing.LAYER_METRICS:
            print(f"{name:30s} {layer['metrics'][name]:14.6g} {units[name]:13s} {moves[name]}")
        print("# self times: span, calls, inclusive s, self s")
        for span, calls, incl, own in layer["self_times"]:
            print(f"{span:30s} {calls:8d} {incl:12.4f} {own:12.4f}")
        print(f"# tracing overhead on the main rate: untraced {layer['main_rate']['untraced']:.6g}"
              f", traced {layer['main_rate']['traced']:.6g}")
        record["per_layer"] = layer["metrics"]
        record["self_times"] = layer["self_times"]
        record["main_rate"] = layer["main_rate"]
        shown = {k: {"value": layer["metrics"][k], "unit": units[k]} for k in units}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": shown}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        sys.stdout.write(res.stdout)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            status = res.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps({"all": summary}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
