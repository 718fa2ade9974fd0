#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at toy sizes.

Checks that each workload runs untraced and traced with no failed check,
that every metric named in BENCHMARK.json is reported with its unit, that
an output check fires when handed a wrong expected value, and that the
benchmark refuses to run without the package source.  Run from anywhere::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from myograsp import metrics  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def spec_matches_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json names every workload")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]}
          == {k: unit for k, (unit, _) in run.END_TO_END.items()},
          "BENCHMARK.json end_to_end names and units match the harness")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS],
          "BENCHMARK.json per_layer names, units and directions match the harness")


def each_workload_reports_every_metric() -> None:
    per_layer = {n for n, _, _, _ in tracing.LAYER_METRICS}
    for name, spec in workloads.WORKLOADS.items():
        for traced in (False, True):
            e2e, _, layer, ledger = workloads.run(name, 3, 0.2, traced,
                                                  os.path.join(SCRATCH, name),
                                                  spec=workloads.toy(spec))
            check(ledger.failed == 0 and ledger.attempted > 0,
                  f"{name} trace={int(traced)}: {ledger.attempted} operations and checks, "
                  f"none failed {ledger.errors}")
            check(set(e2e) == set(run.END_TO_END)
                  and all(v > 0 for v in e2e.values()),
                  f"{name} trace={int(traced)}: every end-to-end metric reported, non-zero")
            if traced:
                check(set(layer["metrics"]) == per_layer,
                      f"{name}: every per-layer metric reported")


def wrong_expected_value_fails() -> None:
    """The evaluate-vs-predict check must fire when the expected nrmse is off."""
    original = metrics.nrmse
    metrics.nrmse = lambda *a, **k: original(*a, **k) * (1.0 + 1e-6)
    try:
        _, _, _, ledger = workloads.run("cli-pipeline", 3, 0.2, False,
                                        os.path.join(SCRATCH, "wrong"),
                                        spec=workloads.toy(workloads.WORKLOADS["cli-pipeline"]))
    finally:
        metrics.nrmse = original
    check(ledger.failed >= 1 and any("evaluate nrmse" in e for e in ledger.errors),
          "a wrong expected nrmse counts as a failed check")


def refuses_without_source() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-pipeline",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=120)
    check(res.returncode != 0 and '"correct"' not in res.stdout,
          f"exits {res.returncode} with no result when src/ is missing")


def main() -> int:
    try:
        spec_matches_benchmark_json()
        each_workload_reports_every_metric()
        wrong_expected_value_fails()
        refuses_without_source()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
