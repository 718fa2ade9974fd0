"""Drive the full experiment grid through the CLI and print the result table.

Generates a synthetic dataset, preprocesses it, then trains and evaluates
every (model, protocol, ada, fold, seed) cell the way the paper's tables are
laid out.  Everything goes through `myograsp.cli.main`, so a run of this
script doubles as an end-to-end exercise of the command-line interface.

Defaults are sized for a desk run (minutes, not hours); pass --full for the
5-subject x 8-session x 240 s dataset and 256-unit networks.
"""

import argparse
import os
import sys
import tempfile

from myograsp.cli import main as cli
from myograsp.experiment import PAPER_COLUMNS, checkpoint_name


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(f"command failed ({code}): {' '.join(argv)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", default=None, help="keep artifacts here")
    ap.add_argument("--full", action="store_true",
                    help="paper-scale dataset and 256-unit networks")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--folds", type=int, nargs="+", default=[0])
    ap.add_argument("--models", nargs="+", default=["vanilla", "gru", "sru"])
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="myograsp-grid-")
    os.makedirs(workdir, exist_ok=True)
    data_dir = os.path.join(workdir, "data")
    archive = os.path.join(workdir, "samples.npz")
    ckpt_dir = os.path.join(workdir, "checkpoints")
    results = os.path.join(workdir, "results.csv")

    if args.full:
        gen = ["--subjects", "5", "--sessions", "8", "--seconds", "240"]
        stride, hidden, epochs = "64", "256", "30"
    else:
        gen = ["--subjects", "3", "--sessions", "5", "--seconds", "60"]
        stride, hidden, epochs = "64", "32", "10"

    if not os.path.exists(os.path.join(data_dir, "manifest.json")):
        run(["generate", "--out", data_dir, "--seed", "0"] + gen)
    if not os.path.exists(archive):
        run(["preprocess", "--manifest", os.path.join(data_dir, "manifest.json"),
             "--out", archive, "--stride", stride])

    for seed in args.seeds:
        for model in args.models:
            for _, protocol, ada in PAPER_COLUMNS:
                for fold in (args.folds if protocol != "intra-session" else [0]):
                    train_args = ["train", "--archive", archive,
                                  "--out-dir", ckpt_dir, "--model", model,
                                  "--protocol", protocol, "--fold", str(fold),
                                  "--seed", str(seed), "--hidden", hidden,
                                  "--predictor-hidden", hidden,
                                  "--epochs", epochs]
                    if ada:
                        train_args.append("--ada")
                    run(train_args)
                    name = checkpoint_name(model, protocol, fold, seed, ada) + ".ckpt"
                    run(["evaluate", "--checkpoint", os.path.join(ckpt_dir, name),
                         "--archive", archive, "--results", results])

    print(f"\nartifacts in {workdir}\n")
    run(["report", "--results", results,
         "--out", os.path.join(workdir, "aggregated.csv")])


if __name__ == "__main__":
    main()
