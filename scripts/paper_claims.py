"""Measure the paper's three claims on synthetic data, for both wrist modes.

The paper claims (1) results for mobile and immobile wrists, (2) SRU cells
beat a regular RNN (Lei et al., 2018) and (3) gradient-reversal ADA
(Ganin & Lempitsky, 2015) improves transfer between subjects.  For every
wrist mode x model x table column (`experiment.PAPER_COLUMNS`) and seed this
trains one run and records the test NRMSE of the trained and the untrained
network next to the dataset's linear-baseline floor.

Progress goes to stdout line by line; the last line is one JSON record with
the per-seed values and means of every cell and, per claim, the mean
difference and its spread over seeds (population std).  Negative
differences favour the claim.  Sizes default to a desk run (tens of
minutes for three seeds).
"""

import argparse
import json
import logging
import warnings

import numpy as np

from myograsp import splits, synthgen
from myograsp.experiment import PAPER_COLUMNS, TrainRunConfig, prepare_run, synthesize
from myograsp.metrics import angle_ranges, nrmse
from myograsp.training import predict, train

MODES = ("immobile", "mobile")
MODELS = ("sru", "gru")


def cell_key(mode, model, protocol, ada):
    return f"{mode}/{model}/{protocol}" + ("+ada" if ada else "")


def run_cell(ws, sessions, cfg):
    """(trained, untrained) test NRMSE of one run."""
    run = prepare_run(ws, sessions, cfg)
    xs, ys = ws.materialize(run.plan.indices(splits.TEST))
    xs = run.stats.apply(xs)

    def score(net):
        return nrmse(run.target_stats.denormalize(predict(net, xs)), ys, angle_ranges(ys))

    untrained = score(run.net)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        net, _ = train(run.net, run.train_src, run.val_src, run.train_config,
                       run.target_stats)
    return score(net), untrained


def summary(values):
    return {"values": [round(float(v), 6) for v in values],
            "mean": round(float(np.mean(values)), 6),
            "spread": round(float(np.std(values)), 6)}


def claims(cells, floors):
    """Per-seed differences behind each claim; negative favours the claim."""
    def diff(a, b):
        return summary(np.subtract(a, b))

    learns, sru_vs_gru, ada = {}, {}, {}
    for mode in MODES:
        keys = [cell_key(mode, m, p, a) for m in MODELS for _, p, a in PAPER_COLUMNS]
        trained = np.mean([cells[k]["trained"] for k in keys], axis=0)
        untrained = np.mean([cells[k]["untrained"] for k in keys], axis=0)
        learns[mode] = {"trained_minus_untrained": diff(trained, untrained),
                        "trained_minus_floor": diff(trained, floors[mode])}
        for _, protocol, with_ada in PAPER_COLUMNS:
            sru, gru = (cells[cell_key(mode, m, protocol, with_ada)]["trained"]
                        for m in MODELS)
            sru_vs_gru[cell_key(mode, "sru-gru", protocol, with_ada)] = diff(sru, gru)
            if with_ada:
                for model in MODELS:
                    ada[cell_key(mode, model, protocol, False)] = diff(
                        cells[cell_key(mode, model, protocol, True)]["trained"],
                        cells[cell_key(mode, model, protocol, False)]["trained"])
    return {"learns_in_both_modes": learns, "sru_beats_gru": sru_vs_gru,
            "ada_minus_no_ada": ada}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--subjects", type=int, default=3)
    ap.add_argument("--sessions", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--stride", type=int, default=64)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=10)
    args = ap.parse_args()
    logging.disable(logging.INFO)

    cells, floors = {}, {mode: [] for mode in MODES}
    for mode in MODES:
        for seed in args.seeds:
            ws, sessions, floor = synthesize(synthgen.SynthConfig(
                n_subjects=args.subjects, sessions_per_subject=args.sessions,
                session_seconds=args.seconds, seed=seed, mode=mode), stride=args.stride)
            floors[mode].append(floor)
            print(f"{mode} seed {seed}: {len(ws)} windows, floor {floor:.4f}", flush=True)
            for model in MODELS:
                for _, protocol, ada in PAPER_COLUMNS:
                    trained, untrained = run_cell(ws, sessions, TrainRunConfig(
                        model=model, protocol=protocol, ada=ada, seed=seed,
                        hidden=args.hidden, predictor_hidden=64,
                        max_epochs=args.epochs, patience=args.epochs, batch_size=128))
                    key = cell_key(mode, model, protocol, ada)
                    cell = cells.setdefault(key, {"trained": [], "untrained": []})
                    cell["trained"].append(trained)
                    cell["untrained"].append(untrained)
                    print(f"  {key:32s} trained {trained:.4f}  untrained {untrained:.4f}",
                          flush=True)

    print(json.dumps({
        "args": vars(args),
        "floor": {mode: summary(values) for mode, values in floors.items()},
        "cells": {key: {name: summary(values) for name, values in cell.items()}
                  for key, cell in cells.items()},
        "claims": claims(cells, floors)}))


if __name__ == "__main__":
    main()
