"""Smoke tests: each script in scripts/ runs at toy size and prints its summary."""

import os
import subprocess
import sys

from myograsp.cli import main

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


def test_calibrate_trends():
    lines = run_script("calibrate_trends.py", "--seeds", "0", "--epochs", "1",
                       "--hidden", "4", "--seconds", "30", "--stride", "128")
    assert lines[0].startswith("seed 0: ") and " windows, floor " in lines[0]
    assert sum(" nrmse " in line for line in lines) == 10
    assert "means over seeds:" in lines
    for prefix in ("trend (a) intra:", "trend (a) inter-sess:",
                   "trend (b) sru inter-subj:", "trend (b) gru inter-subj:",
                   "trend (c) sru inter-sess:", "trend (c) gru inter-sess:"):
        assert any(line.startswith(prefix) for line in lines), prefix


def test_calibrate_endtoend():
    lines = run_script("calibrate_endtoend.py", "--subjects", "1", "--sessions", "1",
                       "--seconds", "30", "--stride", "64", "--hidden", "4",
                       "--epochs", "1")
    for prefix in ("data: ", "untrained ", "trained ", "val curve: ", "total "):
        assert sum(line.startswith(prefix) for line in lines) == 1, prefix
    assert "after 1 epochs" in next(line for line in lines if line.startswith("trained "))


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
    assert len(os.listdir(tmp_path / "checkpoints")) == 2 * 5  # checkpoint + report
    header = next(line for line in lines if line.startswith("Metric"))
    assert "Inter subjects ADA" in header
    rows = [line.split() for line in lines if line.startswith(("nrmse ", "rmse "))]
    assert [r[:2] for r in rows] == [["nrmse", "sru"], ["rmse", "sru"]]
    assert all("-" not in r[2:] for r in rows)   # every grid cell was filled
