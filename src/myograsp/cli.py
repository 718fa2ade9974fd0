"""Command line interface: generate, preprocess, train, evaluate, report.

Configuration precedence per command: built-in defaults < config file
(plain ``key = value`` lines) < environment variables prefixed MYOGRASP_
< explicit command-line flags.  A field ``stride`` of the command's config
dataclass is the key ``stride``, MYOGRASP_STRIDE and ``--stride`` (or the
flag named in :data:`SHORT_FLAGS`).  The network's layer and channel
counts and the ADA loss weight are constants, not fields.  Results
accumulate in an append-only CSV keyed by (model, protocol, fold, ada,
seed) so a full experiment grid can be assembled incrementally from
independent processes.

Exit codes: 0 success, 2 configuration error, 3 IO/data error, 4 numeric
failure (NaN loss or test score).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import sys

import numpy as np

from . import datapipe, splits, synthgen
from .errors import ConfigError, DataError, NumericError
from .experiment import PAPER_COLUMNS, TrainRunConfig, checkpoint_name, prepare_run
from .metrics import angle_ranges, nrmse, rmse
from .network import load_checkpoint, save_checkpoint
# ``predict`` stays importable here: perfbench/tracing.py wraps it by this name
from .training import TargetStats, predict, predict_source, train

log = logging.getLogger("myograsp.cli")

ENV_PREFIX = "MYOGRASP_"
RESULTS_HEADER = "metric,model,protocol,ada,fold,seed,value"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _coerce(value: str, target_type):
    if target_type is bool:
        v = value.strip().lower()
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {value!r}")
    try:
        return target_type(value)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {target_type.__name__} from {value!r}") from exc


def read_config_file(path) -> dict:
    """Plain key = value lines; '#' starts a comment."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


# the fields whose flag is not their own name with '-' for '_'
SHORT_FLAGS = {"n_subjects": "subjects", "sessions_per_subject": "sessions",
               "session_seconds": "seconds", "subject_mixing_perturbation": "perturbation",
               "learning_rate": "lr", "max_epochs": "epochs"}
_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def field_types(cls) -> dict:
    """Field name -> type of a config dataclass, for flags, file and env values."""
    return {f.name: _TYPES.get(f.type, f.type) for f in dataclasses.fields(cls)}


def add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    """Add ``--config`` and one flag per field of ``cls``, stored under the field name."""
    parser.add_argument("--config", help="key = value config file")
    for name, kind in field_types(cls).items():
        flag = "--" + SHORT_FLAGS.get(name, name.replace("_", "-"))
        if kind is bool:
            parser.add_argument(flag, dest=name, action="store_const", const=True)
        else:
            parser.add_argument(flag, dest=name, type=kind)


def resolve_config(cls, args: argparse.Namespace):
    """Layer defaults, config file, MYOGRASP_* environment and the flags
    that :func:`add_config_flags` added for ``cls``."""
    types = field_types(cls)
    values = {}

    if args.config:
        file_values = read_config_file(args.config)
        unknown = set(file_values) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)

    for name in types:
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            values[name] = env

    coerced = {name: _coerce(raw, types[name]) for name, raw in values.items()}
    for name in types:
        if getattr(args, name) is not None:
            coerced[name] = getattr(args, name)

    try:
        return cls(**coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = resolve_config(synthgen.SynthConfig, args)
    manifest = synthgen.write_dataset(cfg, args.out)
    n = len(manifest["recordings"])
    log.info("generated %d recordings (%d stream files) under %s",
             n, 2 * n, args.out)
    print(os.path.join(args.out, "manifest.json"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class PreprocessConfig:
    stride: int = 8

    def __post_init__(self):
        # ValueError becomes ConfigError (exit 2) in resolve_config
        if self.stride < 1:
            raise ValueError(f"need stride >= 1, got {self.stride}")


# how far, relative, a stream's mean sample interval may lie from 1000 / its
# manifest rate (emg_rate or angle_rate): the filter's cutoff is set from
# the emg rate, and a wrong angle rate means the manifest misdescribes the data
RATE_TOLERANCE = 0.05


def check_stream_rate(stream: datapipe.RawStream, path, key: str) -> None:
    """DataError unless ``stream``'s mean sample interval, (last - first
    timestamp) / (rows - 1), lies within ``RATE_TOLERANCE`` of 1000 / its
    nominal rate, the manifest's ``key``; a one-row stream has no interval
    to check."""
    ts = stream.timestamps_ms
    if len(ts) < 2:
        return
    interval = (ts[-1] - ts[0]) / (len(ts) - 1)
    nominal = 1000.0 / stream.nominal_rate
    if abs(interval - nominal) > RATE_TOLERANCE * nominal:
        raise DataError(f"{path}: mean sample interval {interval:.4g} ms does not match the "
                        f"manifest {key} {stream.nominal_rate:g} Hz ({nominal:.4g} ms)")


def cmd_preprocess(args) -> int:
    cfg = resolve_config(PreprocessConfig, args)
    manifest = datapipe.read_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))

    window_sets = []
    for entry in manifest["recordings"]:
        emg = datapipe.read_stream_csv(os.path.join(base, entry["emg"]),
                                       entry["subject"], entry["session"],
                                       "emg", manifest["emg_rate"])
        check_stream_rate(emg, entry["emg"], "emg_rate")
        ang = datapipe.read_stream_csv(os.path.join(base, entry["angles"]),
                                       entry["subject"], entry["session"],
                                       "angles", manifest["angle_rate"])
        check_stream_rate(ang, entry["angles"], "angle_rate")
        ws, _ = datapipe.preprocess_session(emg, ang, stride=cfg.stride)
        window_sets.append(ws)
    combined = datapipe.concat_windows(window_sets)

    meta = {"mode": manifest["mode"], "n_angles": manifest["n_angles"],
            "emg_rate": manifest["emg_rate"], "stride": cfg.stride,
            "linear_baseline_nrmse": manifest.get("linear_baseline_nrmse")}
    datapipe.save_archive(args.out, combined, meta)
    log.info("archived %d windows from %d sessions to %s",
             len(combined), len(window_sets), args.out)
    print(args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = resolve_config(TrainRunConfig, args)
    window_set, meta = datapipe.load_archive(args.archive)
    run = prepare_run(window_set, meta["sessions"], cfg)
    log.info("split %s fold %d: %s", run.plan.protocol, cfg.fold, run.plan.counts())
    # written before training, so an unwritable path fails before any epoch
    os.makedirs(args.out_dir, exist_ok=True)
    if args.split_audit:
        run.plan.to_csv(args.split_audit, window_set)
    net, report = train(run.net, run.train_src, run.val_src, run.train_config,
                        run.target_stats)

    stem = checkpoint_name(cfg.model, cfg.protocol, cfg.fold, cfg.seed, cfg.ada)
    ckpt_path = os.path.join(args.out_dir, stem + ".ckpt")
    save_checkpoint(ckpt_path, net, meta={
        "model": cfg.model, "protocol": run.plan.protocol, "fold": cfg.fold,
        "seed": cfg.seed, "ada": cfg.ada, "mode": meta["mode"],
        "norm_mean": run.stats.mean.tolist(), "norm_std": run.stats.std.tolist(),
        "target_mean": run.target_stats.mean.tolist(),
        "target_std": run.target_stats.std.tolist(),
        "best_epoch": report.best_epoch,
        "best_val_nrmse": report.best_val_nrmse})
    report.to_csv(os.path.join(args.out_dir, stem + "_report.csv"))
    log.info("best epoch %d (val NRMSE %.4f), stopped at epoch %d",
             report.best_epoch, report.best_val_nrmse, report.stopping_epoch)
    print(ckpt_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def append_results(path, rows) -> None:
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        if new:
            fh.write(RESULTS_HEADER + "\n")
        csv.writer(fh).writerows(rows)


def _meta_vector(meta: dict, key: str, size: int, path) -> np.ndarray:
    value = meta[key]
    if (not isinstance(value, list) or len(value) != size
            or not all(type(v) in (int, float) for v in value)):
        raise DataError(f"checkpoint {path}: meta {key} must be a list of {size} numbers, "
                        f"got {value!r}")
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"checkpoint {path}: meta {key} holds non-finite values")
    return arr


def evaluation_meta(meta, path, net) -> tuple[datapipe.NormStats, TargetStats]:
    """Check the checkpoint meta that ``evaluate`` reads, before any work.

    The split keys must be present and typed (``fold`` and ``seed``
    integers), and the input and target statistics must hold one finite
    mean and one positive std per channel and per angle.  Returns those
    statistics; any violation is a DataError.
    """
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path}: meta is not a mapping")
    missing = [key for key in ("model", "protocol", "fold", "seed", "ada", "norm_mean",
                               "norm_std", "target_mean", "target_std") if key not in meta]
    if missing:
        raise DataError(f"checkpoint {path} misses meta keys {missing}")
    for key, kind in (("model", str), ("protocol", str), ("fold", int), ("seed", int)):
        if type(meta[key]) is not kind:
            raise DataError(f"checkpoint {path}: meta {key} must be a {kind.__name__}, "
                            f"got {meta[key]!r}")
    stats = []
    for cls, prefix, size in ((datapipe.NormStats, "norm", datapipe.EMG_CHANNELS),
                              (TargetStats, "target", net.config.output_angles)):
        mean, std = (_meta_vector(meta, f"{prefix}_{part}", size, path)
                     for part in ("mean", "std"))
        if np.any(std <= 0):
            raise DataError(f"checkpoint {path}: meta {prefix}_std must be positive")
        stats.append(cls(mean=mean, std=std))
    return tuple(stats)


def cmd_evaluate(args) -> int:
    net, meta = load_checkpoint(args.checkpoint)
    stats, target_stats = evaluation_meta(meta, args.checkpoint, net)
    window_set, archive_meta = datapipe.load_archive(args.archive)
    if archive_meta["n_angles"] != net.config.output_angles:
        raise ConfigError(
            f"checkpoint predicts {net.config.output_angles} angles but archive "
            f"holds {archive_meta['n_angles']} ({archive_meta['mode']} mode)")

    fold, seed = meta["fold"], meta["seed"]
    plan = splits.make_split(meta["protocol"], window_set, archive_meta["sessions"],
                             fold, seed)
    test_idx = plan.indices(splits.TEST)
    if len(test_idx) == 0:
        raise DataError("split produced an empty test set")

    preds, ys = predict_source(net, datapipe.WindowSource(window_set, test_idx, stats),
                               target_stats)
    ranges = angle_ranges(ys)
    if np.any(ranges <= 0):
        raise DataError("an angle is constant over the test split: its NRMSE is undefined")
    test_rmse = rmse(preds, ys)
    test_nrmse = nrmse(preds, ys, ranges)
    if not np.isfinite([test_rmse, test_nrmse]).all():
        raise NumericError(f"non-finite test score: rmse={test_rmse} nrmse={test_nrmse}")

    # the dump goes first: an unwritable dump path must leave no result rows
    if args.dump_trajectories:
        order = np.argsort(window_set.end_ts[test_idx], kind="stable")
        n_angles = ys.shape[1]
        header = ("end_timestamp_ms,"
                  + ",".join(f"true{i}" for i in range(n_angles)) + ","
                  + ",".join(f"pred{i}" for i in range(n_angles)))
        data = np.column_stack([window_set.end_ts[test_idx][order],
                                ys[order], preds[order]])
        datapipe.write_csv(args.dump_trajectories, header, data)

    ada = "true" if meta["ada"] else "false"
    rows = [["rmse", meta["model"], plan.protocol, ada, fold, seed, f"{test_rmse:.10g}"],
            ["nrmse", meta["model"], plan.protocol, ada, fold, seed, f"{test_nrmse:.10g}"]]
    append_results(args.results, rows)
    log.info("%s fold %d: rmse=%.4f nrmse=%.4f on %d test windows",
             plan.protocol, fold, test_rmse, test_nrmse, len(test_idx))
    print(f"rmse={test_rmse:.6f} nrmse={test_nrmse:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def read_results(path) -> list:
    """Rows of a results CSV as dicts; a file that ``append_results`` could
    not have written (another header, a short or long row, a value that is
    no finite number) is a DataError."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            header = reader.fieldnames
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read results file {path}: {exc}") from exc
    if header != RESULTS_HEADER.split(","):
        raise DataError(f"results file {path}: header {header} is not {RESULTS_HEADER!r}")
    if not rows:
        raise DataError(f"results file {path} is empty")
    for n, row in enumerate(rows, 1):
        if None in row or None in row.values():
            raise DataError(f"results file {path}: row {n} does not hold {len(header)} fields")
        try:
            value = float(row["value"])
        except ValueError:
            value = float("nan")
        if not np.isfinite(value):
            raise DataError(f"results file {path}: row {n} value {row['value']!r} "
                            "is no finite number")
    return rows


def aggregate_results(rows):
    cells = {}
    for row in rows:
        key = (row["metric"], row["model"], row["protocol"], row["ada"])
        cells.setdefault(key, []).append(float(row["value"]))
    out = {}
    for key, values in cells.items():
        arr = np.asarray(values)
        out[key] = (float(arr.mean()), float(arr.std()), len(arr))
    return out


def format_table(agg) -> str:
    metrics = sorted({k[0] for k in agg})
    models = sorted({k[1] for k in agg})
    lines = []
    widths = [max(len(title), 15) for title, _, _ in PAPER_COLUMNS]
    name_w = max([len(m) for m in models] + [10])
    header = f"{'Metric':8} {'Model':{name_w}} " + " ".join(
        f"{title:>{w}}" for (title, _, _), w in zip(PAPER_COLUMNS, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for metric in metrics:
        for model in models:
            cells = []
            for (_, protocol, ada), w in zip(PAPER_COLUMNS, widths):
                found = agg.get((metric, model, protocol, "true" if ada else "false"))
                if found is None:
                    cells.append(f"{'-':>{w}}")
                else:
                    mean, std, _ = found
                    cells.append(f"{mean:.4f}±{std:.4f}".rjust(w))
            lines.append(f"{metric:8} {model:{name_w}} " + " ".join(cells))
    return "\n".join(lines)


def cmd_report(args) -> int:
    rows = read_results(args.results)
    agg = aggregate_results(rows)
    table = format_table(agg)
    print(table)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["metric", "model", "protocol", "ada", "mean", "std", "n"])
            for (metric, model, protocol, ada), (mean, std, n) in sorted(agg.items()):
                w.writerow([metric, model, protocol, ada,
                            f"{mean:.10g}", f"{std:.10g}", n])
        log.info("aggregated %d result rows into %s", len(rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="myograsp",
        description="Recurrent-network gesture regression on multichannel "
                    "emg-style recordings")
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("--out", required=True, help="output directory")
    add_config_flags(g, synthgen.SynthConfig)
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="align, filter and window a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output archive (.npz)")
    add_config_flags(p, PreprocessConfig)
    p.set_defaults(func=cmd_preprocess)

    t = sub.add_parser("train", help="train a model on an archive")
    t.add_argument("--archive", required=True)
    t.add_argument("--out-dir", required=True)
    add_config_flags(t, TrainRunConfig)
    t.add_argument("--split-audit", help="write the split plan CSV here")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="score a checkpoint on its test fold")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--archive", required=True)
    e.add_argument("--results", required=True, help="append-only results CSV")
    e.add_argument("--dump-trajectories",
                   help="write predicted vs true angle time series CSV")
    e.set_defaults(func=cmd_evaluate)

    r = sub.add_parser("report", help="aggregate a results CSV into a table")
    r.add_argument("--results", required=True)
    r.add_argument("--out", help="also write the aggregated CSV here")
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        log.error("data error: %s", exc)
        return EXIT_IO
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
