#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's median and spread.

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; it is
printed beside the metric's bound from BENCHMARK.json.  ``--out`` merges
the medians and raw values into a JSON file keyed by workload (this is how
``baseline.json`` was made)::

    python3 perfbench/spread.py --workload train-sru-ada --seeds 1-10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="merge the summary into this JSON file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values, failed = {}, 0
    seeds = parse_seeds(args.seeds)
    for seed in seeds:
        res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(args.trace)],
                             cwd=ROOT, capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        failed += result["failed"]
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = "" if bound is None else (
            f" bound {bound}" + (" (under a third)" if spread < bound / 3 else
                                 " (within)" if spread <= bound else " (OVER)"))
        print(f"{name:28s} median {med:12.6g}  quartiles {q1:.6g}-{q3:.6g}  "
              f"spread {spread:.4f}{note}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}

    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                merged = json.load(fh)
        merged[args.workload] = {"seeds": seeds, "seconds": seconds, "trace": args.trace,
                                 "failed": failed, "metrics": summary}
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
