"""Probe for the end-to-end learning criterion at the default dataset scale.

Builds the default synthetic dataset in memory, trains the SRU intra-session
and reports NRMSE against the untrained network and the linear floor, with
wall-clock timing per stage.
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


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--subjects", type=int, default=5)
    ap.add_argument("--sessions", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=240.0)
    ap.add_argument("--stride", type=int, default=256)
    ap.add_argument("--hidden", type=int, default=128)
    ap.add_argument("--epochs", type=int, default=12)
    ap.add_argument("--batch", type=int, default=64)
    ap.add_argument("--lr", type=float, default=0.002)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    logging.disable(logging.INFO)

    t0 = time.perf_counter()
    ws, sessions, floor = synthesize(synthgen.SynthConfig(
        n_subjects=args.subjects, sessions_per_subject=args.sessions,
        session_seconds=args.seconds, seed=args.seed), stride=args.stride)
    t_data = time.perf_counter() - t0
    print(f"data: {len(ws)} windows, floor {floor:.4f} ({t_data:.0f}s)")

    run = prepare_run(ws, sessions, TrainRunConfig(
        model="sru", protocol="intra", seed=args.seed, hidden=args.hidden,
        predictor_hidden=args.hidden, learning_rate=args.lr,
        max_epochs=args.epochs, patience=args.epochs, batch_size=args.batch))
    xs, ys = ws.materialize(run.plan.indices(splits.TEST))
    xs = run.stats.apply(xs)

    untrained = nrmse(run.target_stats.denormalize(predict(run.net, xs)), ys, angle_ranges(ys))
    mean_pred = nrmse(np.tile(run.target_stats.mean, (len(ys), 1)), ys, angle_ranges(ys))
    print(f"untrained {untrained:.4f}, mean-predictor {mean_pred:.4f}, "
          f"targets 0.5*untrained={0.5 * untrained:.4f}, 1.2*floor={1.2 * floor:.4f}")

    t1 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        net, report = train(run.net, run.train_src, run.val_src, run.train_config,
                            run.target_stats)
    t_train = time.perf_counter() - t1
    trained = nrmse(run.target_stats.denormalize(predict(net, xs)), ys, angle_ranges(ys))
    med_epoch = np.median([e.seconds for e in report.epochs])
    print(f"trained {trained:.4f} after {len(report.epochs)} epochs "
          f"({t_train:.0f}s, median epoch {med_epoch:.1f}s)")
    print("val curve:", [round(e.val_nrmse, 4) for e in report.epochs])
    ok1 = trained < 0.5 * untrained
    ok2 = trained < 1.2 * floor
    print(f"total {time.perf_counter() - t0:.0f}s; "
          f"0.5*untrained {'OK' if ok1 else 'FAIL'}, 1.2*floor {'OK' if ok2 else 'FAIL'}")


if __name__ == "__main__":
    main()
