"""Desk-scale trend check: SRU vs GRU across protocols, with/without ADA.

Used to calibrate the synthetic generator and the acceptance thresholds;
prints mean NRMSE per (model, protocol, ada) cell over the given seeds.
"""

import argparse
import logging
import time
import warnings

import numpy as np

from myograsp import splits, synthgen
from myograsp.experiment import TrainRunConfig, prepare_run, synthesize
from myograsp.metrics import angle_ranges, nrmse
from myograsp.training import predict, train


def run_one(ws, sessions, cfg):
    """Train one grid cell; returns (test NRMSE, training seconds)."""
    run = prepare_run(ws, sessions, cfg)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        net, _ = train(run.net, run.train_src, run.val_src, run.train_config,
                       run.target_stats)
    xs, ys = ws.materialize(run.plan.indices(splits.TEST))
    preds = run.target_stats.denormalize(predict(net, run.stats.apply(xs)))
    return nrmse(preds, ys, angle_ranges(ys)), time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--stride", type=int, default=64)
    ap.add_argument("--seconds", type=float, default=60.0)
    args = ap.parse_args()
    logging.disable(logging.INFO)

    cells_grid = [("sru", "intra", False), ("gru", "intra", False),
                  ("sru", "inter-session", False), ("gru", "inter-session", False),
                  ("sru", "inter-session", True), ("gru", "inter-session", True),
                  ("sru", "inter-subject", False), ("gru", "inter-subject", False),
                  ("sru", "inter-subject", True), ("gru", "inter-subject", True)]
    results = {k: [] for k in cells_grid}
    for seed in args.seeds:
        ws, sessions, floor = synthesize(synthgen.SynthConfig(
            n_subjects=3, sessions_per_subject=5, session_seconds=args.seconds,
            seed=seed), stride=args.stride)
        print(f"seed {seed}: {len(ws)} windows, floor {floor:.4f}")
        for model, protocol, ada in cells_grid:
            value, elapsed = run_one(ws, sessions, TrainRunConfig(
                model=model, protocol=protocol, ada=ada, seed=seed, hidden=args.hidden,
                predictor_hidden=64, max_epochs=args.epochs, patience=args.epochs,
                batch_size=128))
            results[(model, protocol, ada)].append(value)
            print(f"  {model:4s} {protocol:14s} ada={int(ada)}: "
                  f"nrmse {value:.4f} ({elapsed:.0f}s)")
    print("\nmeans over seeds:")
    means = {}
    for key, vals in results.items():
        means[key] = float(np.mean(vals))
        print(f"  {key}: {means[key]:.4f}  (runs: {[round(v, 4) for v in vals]})")

    sru_i, gru_i = means[("sru", "intra", False)], means[("gru", "intra", False)]
    sru_s, gru_s = means[("sru", "inter-session", False)], means[("gru", "inter-session", False)]
    print("\ntrend (a) intra:        sru %.4f vs gru %.4f -> %s" %
          (sru_i, gru_i, "OK" if sru_i <= gru_i * 1.02 else "FAIL"))
    print("trend (a) inter-sess:   sru %.4f vs gru %.4f -> %s" %
          (sru_s, gru_s, "OK" if sru_s <= gru_s * 1.02 else "FAIL"))
    for model in ("sru", "gru"):
        no = means[(model, "inter-subject", False)]
        yes = means[(model, "inter-subject", True)]
        print("trend (b) %s inter-subj: ada %.4f vs no-ada %.4f -> %s" %
              (model, yes, no, "OK" if yes <= no * 1.02 else "FAIL"))
        gap = means[(model, "inter-subject", False)] / means[(model, "intra", False)]
        print("   domain gap %s: inter-subject/intra = %.2f" % (model, gap))
    for model in ("sru", "gru"):
        no = means[(model, "inter-session", False)]
        yes = means[(model, "inter-session", True)]
        print("trend (c) %s inter-sess: ada %.4f vs no-ada %.4f (paper: ada worse)" %
              (model, yes, no))


if __name__ == "__main__":
    main()
