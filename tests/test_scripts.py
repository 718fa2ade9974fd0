"""Smoke tests: each script in scripts/ runs at toy size and prints its summary."""

import json
import math
import os
import subprocess
import sys

import pytest

from myograsp.cli import main
from myograsp.experiment import PAPER_COLUMNS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                         capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    return res.stdout.splitlines()


@pytest.fixture(scope="module")
def claims_record():
    """The JSON record of one toy paper_claims.py run, shared by the tests below."""
    lines = run_script("paper_claims.py", "--seeds", "0", "--epochs", "1", "--hidden", "4",
                       "--seconds", "30", "--stride", "128")
    return json.loads(lines[-1])


# paper_claims.py took over the trend grid and the end-to-end trained /
# untrained / floor numbers of the earlier calibration scripts; these two
# tests check those two halves of its record under the names they had then.
def test_calibrate_trends(claims_record):
    keys = {f"{mode}/{model}/{protocol}" + ("+ada" if ada else "")
            for mode in ("immobile", "mobile") for model in ("sru", "gru")
            for _, protocol, ada in PAPER_COLUMNS}
    assert len(keys) == 20 and set(claims_record["cells"]) == keys
    assert set(claims_record["claims"]) == {"learns_in_both_modes", "sru_beats_gru",
                                            "ada_minus_no_ada"}


def test_calibrate_endtoend(claims_record):
    for cell in claims_record["cells"].values():
        for name in ("trained", "untrained"):
            assert len(cell[name]["values"]) == 1 and math.isfinite(cell[name]["mean"])
    for mode in ("immobile", "mobile"):
        floor = claims_record["floor"][mode]["values"]
        assert len(floor) == 1 and 0 < floor[0] < 1


def test_run_grid(tmp_path):
    # run_grid skips generate/preprocess when their outputs exist, so a toy
    # archive keeps the five trainings of its grid small
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--subjects", "3", "--sessions", "2",
                 "--seconds", "13", "--seed", "4"]) == 0
    assert main(["preprocess", "--manifest", str(data / "manifest.json"),
                 "--out", str(tmp_path / "samples.npz"), "--stride", "256"]) == 0
    lines = run_script("run_grid.py", "--workdir", str(tmp_path), "--seeds", "0",
                       "--models", "sru")
    # checkpoint + report per column
    assert len(os.listdir(tmp_path / "checkpoints")) == 2 * len(PAPER_COLUMNS)
    header = next(line for line in lines if line.startswith("Metric"))
    assert "Inter subjects ADA" in header
    rows = [line.split() for line in lines if line.startswith(("nrmse ", "rmse "))]
    assert [r[:2] for r in rows] == [["nrmse", "sru"], ["rmse", "sru"]]
    assert all("-" not in r[2:] for r in rows)   # every grid cell was filled
