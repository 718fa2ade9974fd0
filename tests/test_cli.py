import csv
import dataclasses
import gc
import hashlib
import json
import os
import shutil
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from myograsp import cli, datapipe, splits, synthgen, training
from myograsp.cli import main
from myograsp.errors import ConfigError, DataError
from myograsp.experiment import TrainRunConfig, prepare_run
from myograsp.metrics import angle_ranges, nrmse, rmse
from myograsp.network import Network, NetworkConfig, load_checkpoint, save_checkpoint


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


GEN_ARGS = ["--subjects", "2", "--sessions", "3", "--seconds", "16", "--seed", "4"]
SMALL_GEN_ARGS = ["--subjects", "1", "--sessions", "1", "--seconds", "13"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--out", str(out)] + GEN_ARGS) == 0
    return out


@pytest.fixture(scope="module")
def archive_path(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("arch") / "samples.npz"
    code = main(["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
                 "--out", str(out), "--stride", "64"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def checkpoint_path(archive_path, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ckpt")
    code = main(["train", "--archive", str(archive_path),
                 "--out-dir", str(out_dir), "--model", "gru",
                 "--protocol", "intra", "--seed", "1", "--hidden", "8",
                 "--predictor-hidden", "8", "--epochs", "2", "--patience", "2",
                 "--batch-size", "32"])
    assert code == 0
    return out_dir / "gru_intra-session_fold0_seed1.ckpt"


class TestGenerate:
    def test_file_count(self, dataset_dir):
        names = os.listdir(dataset_dir)
        # subjects x sessions x 2 streams + per-session latents + manifest
        assert len([n for n in names if n.endswith(".csv")]) == 2 * 3 * 2 + 3
        assert "manifest.json" in names

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        out = tmp_path / "again"
        assert main(["generate", "--out", str(out)] + GEN_ARGS) == 0
        for name in os.listdir(dataset_dir):
            assert sha(out / name) == sha(dataset_dir / name), name

    def test_invalid_mode_exits_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = sideways\n")
        code = main(["generate", "--out", str(tmp_path / "x"),
                     "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_factor = 9\n")
        code = main(["generate", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flags", [
        ["--emg-rate", "nan"], ["--seconds", "nan"], ["--seconds", "-5"], ["--seconds", "0"],
        ["--angle-rate", "inf"], ["--perturbation", "nan"], ["--noise-std", "-1"],
        ["--mode", "sideways"], ["--emg-rate", "20"], ["--emg-rate", "15"],
    ], ids=lambda flags: " ".join(flags))
    def test_bad_flag_values_exit_config(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        code = main(["generate", "--out", str(out)] + SMALL_GEN_ARGS + flags)
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_session_too_short_for_baseline_exits_io(self, tmp_path, capsys):
        # 2 s is one 2 s tile: the linear baseline has no evaluation rows
        out = tmp_path / "x"
        code = main(["generate", "--out", str(out)] + SMALL_GEN_ARGS + ["--seconds", "2"])
        assert code == cli.EXIT_IO
        assert "Traceback" not in capsys.readouterr().err
        # the baseline comes before the first stream or latent file
        assert not out.exists() or not list(out.iterdir())

    def test_config_file_and_env_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_subjects = 1\nsessions_per_subject = 1\n"
                       "session_seconds = 14\nseed = 9\n")
        out1 = tmp_path / "o1"
        assert main(["generate", "--out", str(out1), "--config", str(cfg)]) == 0
        assert len([n for n in os.listdir(out1) if n.endswith("_emg.csv")]) == 1
        # env var overrides the file value
        monkeypatch.setenv("MYOGRASP_N_SUBJECTS", "2")
        out2 = tmp_path / "o2"
        assert main(["generate", "--out", str(out2), "--config", str(cfg)]) == 0
        assert len([n for n in os.listdir(out2) if n.endswith("_emg.csv")]) == 2


class TestPreprocess:
    def test_archive_exists_and_is_idempotent(self, dataset_dir, archive_path,
                                              tmp_path):
        again = tmp_path / "again.npz"
        assert main(["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(again), "--stride", "64"]) == 0
        assert sha(archive_path) == sha(again)

    def test_window_count_arithmetic(self, archive_path):
        from myograsp.datapipe import load_archive
        ws, meta = load_archive(archive_path)
        # per session: 16 s * 200 Hz = 3200 aligned rows (minus alignment
        # drops), margin 64 at both ends, stride 64
        rows = meta["sessions"][0]["rows"]
        margin, stride, window = 64, 64, 128
        starts = np.arange(0, rows - window + 1, stride)
        targets = starts + window - 1
        expected = int(((targets >= margin) & (targets < rows - margin)).sum())
        per_session = np.bincount(ws.rec_index)
        assert per_session[0] == expected

    def test_angles_past_emg_clock_fail_with_io_code(self, dataset_dir, tmp_path, capsys,
                                                     caplog):
        # no emg frame has an angle frame within MAX_GAP_MS: nothing pairs
        data, out = tmp_path / "data", tmp_path / "x.npz"
        shutil.copytree(dataset_dir, data)
        path = data / "s0_r0_angles.csv"
        header, *rows = path.read_text().splitlines()
        shifted = [f"{float(t) + 1e6:.6f},{rest}" for t, rest in (r.split(",", 1) for r in rows)]
        path.write_text("\n".join([header] + shifted) + "\n")
        code = main(["preprocess", "--manifest", str(data / "manifest.json"), "--out", str(out)])
        assert code == cli.EXIT_IO
        assert "no emg/angle pairs" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--stride", "0"]], ids=lambda flags: " ".join(flags))
    def test_bad_flag_values_exit_config(self, dataset_dir, tmp_path, capsys, flags):
        code = main(["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "x.npz")] + flags)
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_manifest(self, tmp_path):
        code = main(["preprocess", "--manifest", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x.npz")])
        assert code == cli.EXIT_IO


class TestTrain:
    def test_checkpoint_and_report_written(self, checkpoint_path):
        assert checkpoint_path.exists()
        report = checkpoint_path.with_name("gru_intra-session_fold0_seed1_report.csv")
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_rmse,val_nrmse,seconds"
        assert len(lines) <= 1 + 2

    def test_ada_on_intra_rejected(self, archive_path, tmp_path):
        code = main(["train", "--archive", str(archive_path),
                     "--out-dir", str(tmp_path), "--model", "gru",
                     "--protocol", "intra", "--ada"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flags", [
        ["--lr", "-1"], ["--lr", "0"], ["--lr", "nan"], ["--hidden", "0"],
        ["--predictor-hidden", "0"], ["--batch-size", "0"], ["--epochs", "0"],
        ["--protocol", "inter-subject", "--fold", "9"], ["--fold", "9"],
        ["--model", "lstm"], ["--protocol", "bootstrap"],
    ], ids=lambda flags: " ".join(flags))
    def test_bad_flag_values_exit_config(self, archive_path, tmp_path, capsys, flags):
        code = main(["train", "--archive", str(archive_path), "--out-dir", str(tmp_path),
                     "--model", "gru", "--protocol", "intra", "--hidden", "8",
                     "--predictor-hidden", "8", "--epochs", "2", "--patience", "2"] + flags)
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--lr", "inf"], ["--patience", "0"], ["--seed", "-1"], ["--fold", "-1"],
    ], ids=lambda flags: " ".join(flags))
    def test_unrunnable_values_exit_config(self, archive_path, tmp_path, capsys, flags):
        code = main(["train", "--archive", str(archive_path), "--out-dir", str(tmp_path),
                     "--model", "gru", "--protocol", "intra", "--hidden", "8",
                     "--predictor-hidden", "8", "--epochs", "2", "--patience", "2"] + flags)
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("line", ["model = lstm", "protocol = bootstrap",
                                      "ada = true"])
    def test_bad_config_values_exit_config(self, archive_path, tmp_path, capsys, line):
        # the run config rejects these, whether they come from a flag or a file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out_dir = tmp_path / "out"
        code = main(["train", "--archive", str(archive_path), "--out-dir", str(out_dir),
                     "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not out_dir.exists()

    def test_retrain_is_deterministic(self, archive_path, checkpoint_path,
                                      tmp_path):
        out_dir = tmp_path / "redo"
        assert main(["train", "--archive", str(archive_path),
                     "--out-dir", str(out_dir), "--model", "gru",
                     "--protocol", "intra", "--seed", "1", "--hidden", "8",
                     "--predictor-hidden", "8", "--epochs", "2",
                     "--patience", "2", "--batch-size", "32"]) == 0
        redo = out_dir / checkpoint_path.name
        assert sha(redo) == sha(checkpoint_path)

    def test_split_audit(self, archive_path, tmp_path):
        audit = tmp_path / "plan.csv"
        assert main(["train", "--archive", str(archive_path),
                     "--out-dir", str(tmp_path), "--model", "sru",
                     "--protocol", "inter-session", "--fold", "1", "--seed", "0",
                     "--hidden", "8", "--predictor-hidden", "8", "--epochs", "1",
                     "--patience", "1", "--batch-size", "32",
                     "--split-audit", str(audit)]) == 0
        header = audit.read_text().splitlines()[0]
        assert header.startswith("sample_id,protocol,fold")

    def test_unwritable_split_audit_fails_before_training(self, archive_path, tmp_path,
                                                          monkeypatch):
        # the split plan is known before the first epoch: an audit path in a
        # missing directory exits 3 without training, and leaves no
        # checkpoint or report that would look like a finished run
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        out_dir = tmp_path / "out"
        assert main(["train", "--archive", str(archive_path), "--out-dir", str(out_dir),
                     "--model", "gru", "--protocol", "intra", "--hidden", "8",
                     "--predictor-hidden", "8", "--epochs", "2", "--patience", "2",
                     "--split-audit", str(tmp_path / "missing" / "plan.csv")]) == cli.EXIT_IO
        assert not trained
        assert not list(out_dir.iterdir())

    def test_patience_beyond_epochs_runs_every_epoch(self, archive_path, tmp_path):
        # the default patience (8) exceeds --epochs 2: no early stop, no error
        assert main(["train", "--archive", str(archive_path), "--out-dir", str(tmp_path),
                     "--model", "gru", "--protocol", "intra", "--hidden", "8",
                     "--predictor-hidden", "8", "--epochs", "2",
                     "--batch-size", "32"]) == cli.EXIT_OK
        report = tmp_path / "gru_intra-session_fold0_seed0_report.csv"
        assert len(report.read_text().strip().splitlines()) == 1 + 2


@pytest.fixture(scope="module")
def long_split(tmp_path_factory):
    """(archive, checkpoint, test indices): an inter-subject test split of
    thousands of windows (stride 1) and an untrained SRU checkpoint for it."""
    root = tmp_path_factory.mktemp("long")
    assert main(["generate", "--out", str(root / "data"), "--subjects", "2",
                 "--sessions", "1", "--seconds", "24", "--seed", "5"]) == 0
    archive = root / "samples.npz"
    assert main(["preprocess", "--manifest", str(root / "data" / "manifest.json"),
                 "--out", str(archive), "--stride", "1"]) == 0
    ws, meta = datapipe.load_archive(archive)
    run = prepare_run(ws, meta["sessions"], TrainRunConfig(
        model="sru", protocol="inter-subject", hidden=4, predictor_hidden=4))
    checkpoint = root / "sru.ckpt"
    save_checkpoint(checkpoint, run.net, meta={
        "model": "sru", "protocol": run.plan.protocol, "fold": 0, "seed": 0, "ada": False,
        "mode": meta["mode"], "norm_mean": run.stats.mean.tolist(),
        "norm_std": run.stats.std.tolist(), "target_mean": run.target_stats.mean.tolist(),
        "target_std": run.target_stats.std.tolist()})
    return archive, checkpoint, run.plan.indices(splits.TEST)


class TestEvaluate:
    def test_appends_two_rows(self, archive_path, checkpoint_path, tmp_path):
        results = tmp_path / "results.csv"
        assert main(["evaluate", "--checkpoint", str(checkpoint_path),
                     "--archive", str(archive_path),
                     "--results", str(results)]) == 0
        lines = results.read_text().strip().splitlines()
        assert lines[0] == "metric,model,protocol,ada,fold,seed,value"
        assert len(lines) == 3
        assert lines[1].startswith("rmse,gru,intra-session,false,0,1,")
        assert lines[2].startswith("nrmse,gru,intra-session,false,0,1,")

    def test_trajectory_dump(self, archive_path, checkpoint_path, tmp_path):
        results = tmp_path / "r.csv"
        dump = tmp_path / "traj.csv"
        assert main(["evaluate", "--checkpoint", str(checkpoint_path),
                     "--archive", str(archive_path), "--results", str(results),
                     "--dump-trajectories", str(dump)]) == 0
        header = dump.read_text().splitlines()[0]
        assert header.startswith("end_timestamp_ms,true0")
        assert ",pred0" in header

    def test_unwritable_dump_appends_no_rows(self, archive_path, checkpoint_path, tmp_path):
        # a failed dump must leave no rows behind for report to average in
        results = tmp_path / "r.csv"
        args = ["evaluate", "--checkpoint", str(checkpoint_path),
                "--archive", str(archive_path), "--results", str(results)]
        bad_dump = ["--dump-trajectories", str(tmp_path / "nodir" / "t.csv")]
        assert main(args + bad_dump) == cli.EXIT_IO
        assert not results.exists()
        assert main(args) == 0
        before = results.read_bytes()
        assert main(args + bad_dump) == cli.EXIT_IO
        assert results.read_bytes() == before

    def test_constant_true_angle_exits_io(self, archive_path, checkpoint_path, tmp_path,
                                          capsys):
        # a constant angle has zero range: the test split's NRMSE is undefined
        def constant_angles(arrays):
            for key in arrays:
                if key.startswith("rec") and key.endswith("_angles"):
                    arrays[key] = np.full_like(arrays[key], 45.0)

        flat, results, dump = tmp_path / "flat.npz", tmp_path / "r.csv", tmp_path / "t.csv"
        npz_edit(constant_angles)(archive_path, flat)
        code = main(["evaluate", "--checkpoint", str(checkpoint_path), "--archive", str(flat),
                     "--results", str(results), "--dump-trajectories", str(dump)])
        assert code == cli.EXIT_IO
        assert "Traceback" not in capsys.readouterr().err
        assert not results.exists() and not dump.exists()

    @pytest.mark.parametrize("flags", [["--fold", "1"], ["--protocol", "inter-subject"]],
                             ids=lambda flags: " ".join(flags))
    def test_split_is_the_checkpoints(self, archive_path, checkpoint_path, tmp_path, flags):
        # scoring another split than the one trained on would score training data
        results = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--checkpoint", str(checkpoint_path),
                  "--archive", str(archive_path), "--results", str(results)] + flags)
        assert exc.value.code == cli.EXIT_CONFIG
        assert not results.exists()

    def test_mode_mismatch_rejected(self, checkpoint_path, tmp_path):
        # build an 18-angle (mobile) archive: the 15-angle checkpoint must fail
        out = tmp_path / "mobile"
        assert main(["generate", "--out", str(out), "--subjects", "1",
                     "--sessions", "1", "--seconds", "16", "--mode", "mobile",
                     "--seed", "0"]) == 0
        arch = tmp_path / "mobile.npz"
        assert main(["preprocess", "--manifest", str(out / "manifest.json"),
                     "--out", str(arch), "--stride", "64"]) == 0
        code = main(["evaluate", "--checkpoint", str(checkpoint_path),
                     "--archive", str(arch), "--results", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_CONFIG

    def test_chunked_scoring_equals_whole_split(self, long_split, tmp_path):
        # evaluate scores one predict chunk at a time; the rows and the dump
        # equal, byte for byte, those of the whole split materialised,
        # normalised and predicted at once under the same checkpoint
        archive, checkpoint, test_idx = long_split
        results, dump = tmp_path / "r.csv", tmp_path / "t.csv"
        assert main(["evaluate", "--checkpoint", str(checkpoint), "--archive", str(archive),
                     "--results", str(results), "--dump-trajectories", str(dump)]) == 0

        net, meta = load_checkpoint(checkpoint)
        stats, target_stats = cli.evaluation_meta(meta, checkpoint, net)
        ws, _ = datapipe.load_archive(archive)
        xs, ys = ws.materialize(test_idx)
        preds = target_stats.denormalize(training.predict(net, stats.apply(xs)))
        assert len(test_idx) > 4 * training.PREDICT_CHUNK
        expected_results = tmp_path / "expected.csv"
        cli.append_results(expected_results, [
            [metric, "sru", "inter-subject", "false", 0, 0, f"{value:.10g}"]
            for metric, value in (("rmse", rmse(preds, ys)),
                                  ("nrmse", nrmse(preds, ys, angle_ranges(ys))))])
        assert results.read_bytes() == expected_results.read_bytes()
        order = np.argsort(ws.end_ts[test_idx], kind="stable")
        expected_dump = tmp_path / "expected_t.csv"
        datapipe.write_csv(expected_dump, dump.read_text().splitlines()[0],
                           np.column_stack([ws.end_ts[test_idx][order], ys[order],
                                            preds[order]]))
        assert dump.read_bytes() == expected_dump.read_bytes()

    def test_peak_stays_below_a_quarter_of_the_split(self, long_split, tmp_path):
        archive, checkpoint, test_idx = long_split
        args = ["evaluate", "--checkpoint", str(checkpoint), "--archive", str(archive),
                "--results", str(tmp_path / "r.csv")]
        assert main(args) == 0   # warm-up outside the measurement
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        split_bytes = len(test_idx) * datapipe.WINDOW_SIZE * 8 * 8
        assert peak < split_bytes / 4, (peak, split_bytes)

    def test_perfect_oracle_scores_zero_rmse(self, archive_path, checkpoint_path,
                                             tmp_path, monkeypatch):
        # inject targets as predictions: the metric floor must be exactly 0
        from myograsp.datapipe import load_archive
        from myograsp import splits as sp
        from myograsp.network import load_checkpoint
        from myograsp.training import TargetStats
        import numpy as _np
        net, meta = load_checkpoint(checkpoint_path)
        ws, ameta = load_archive(archive_path)
        plan = sp.make_split(meta["protocol"], ws, ameta["sessions"],
                             meta["fold"], meta["seed"])
        _, ys = ws.materialize(plan.indices(sp.TEST))
        tstats = TargetStats(mean=_np.asarray(meta["target_mean"]),
                             std=_np.asarray(meta["target_std"]))
        # evaluate de-normalises, so the oracle supplies normalised targets,
        # one chunk of the test split per call, in order
        done = [0]

        def oracle(net, x, chunk=256):
            lo, done[0] = done[0], done[0] + len(x)
            return tstats.normalize(ys[lo:done[0]])

        monkeypatch.setattr(training, "predict", oracle)

        results = tmp_path / "oracle.csv"
        assert main(["evaluate", "--checkpoint", str(checkpoint_path),
                     "--archive", str(archive_path), "--results", str(results)]) == 0
        rows = results.read_text().strip().splitlines()[1:]
        assert float(rows[0].split(",")[-1]) < 1e-12
        assert float(rows[1].split(",")[-1]) < 1e-12


def truncated(src, dst):
    dst.write_bytes(src.read_bytes()[:2000])


def npz_edit(edit):
    """Copy an npz file with ``edit`` applied to its dict of entries."""
    def make(src, dst):
        with np.load(src) as data:
            arrays = dict(data)
        edit(arrays)
        np.savez(dst, **arrays)
    return make


def archive_edit(key, value_fn):
    """Copy an archive with entry ``key`` of the first window set to value_fn(arrays)."""
    def edit(arrays):
        arrays[key] = arrays[key].copy()
        arrays[key][0] = value_fn(arrays)
    return npz_edit(edit)


def drop_emg_rows(arrays):
    arrays["rec0_emg"] = arrays["rec0_emg"][:len(arrays["rec0_ts"]) // 2]


def drop_emg_channel(arrays):
    arrays["rec0_emg"] = arrays["rec0_emg"][:, :7].copy()


def rewrite_header(arrays, edit):
    """Apply ``edit`` to an archive's or checkpoint's decoded JSON header, in place."""
    header = json.loads(bytes(arrays["__header__"]).decode("utf-8"))
    edit(header)
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)


def header_edit(section, key, value_fn):
    """Copy an npz file with header[section][key] set to value_fn(old value)."""
    def edit(header):
        header[section][key] = value_fn(header[section].get(key))
    return npz_edit(lambda arrays: rewrite_header(arrays, edit))


def header_as(value):
    """Copy an npz file with its JSON header replaced by ``value``."""
    return npz_edit(lambda arrays: arrays.update(__header__=np.frombuffer(
        json.dumps(value).encode("utf-8"), dtype=np.uint8)))


def session_edit(edit):
    """Copy an archive with ``edit`` applied to the first row of its session table."""
    return npz_edit(lambda arrays: rewrite_header(arrays, lambda h: edit(h["sessions"][0])))


def header_drop(section, key):
    """Copy an npz file without header[section][key]."""
    return npz_edit(lambda arrays: rewrite_header(arrays, lambda h: h[section].pop(key)))


def without_target_stats(src, dst):
    from myograsp.network import load_checkpoint, save_checkpoint
    net, meta = load_checkpoint(src)
    save_checkpoint(dst, net, {k: v for k, v in meta.items()
                               if k not in ("target_mean", "target_std")})


def central_directory_field(offset, value):
    """Copy a zip container with a 2-byte field of every central directory
    entry (flags at offset 8, compression method at 10) set to ``value``."""
    def make(src, dst):
        raw = bytearray(src.read_bytes())
        pos = int.from_bytes(raw[-6:-2], "little")   # end record: directory start
        while raw[pos:pos + 4] == b"PK\x01\x02":
            raw[pos + offset:pos + offset + 2] = value.to_bytes(2, "little")
            pos += 46 + sum(int.from_bytes(raw[pos + k:pos + k + 2], "little")
                            for k in (28, 30, 32))
        dst.write_bytes(raw)
    return make


def cut_npy_headers(src, dst):
    """Copy an npz with every entry but the header an .npy whose header
    dict breaks off inside an open parenthesis."""
    header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (3,\n"
    npy = b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for name in zin.namelist():
            zout.writestr(name, zin.read(name) if name == "__header__.npy" else npy)


CORRUPT = {
    "truncated archive": ("archive", truncated),
    "non-zip archive": ("archive", lambda src, dst: dst.write_bytes(b"junk\n" * 50)),
    "recording index past the end": ("archive", archive_edit(
        "windows_rec_index", lambda a: 99)),
    "negative start row": ("archive", archive_edit("windows_start_row", lambda a: -1)),
    "window past its recording": ("archive", archive_edit(
        "windows_start_row", lambda a: len(a["rec0_ts"]) - 127)),
    "truncated checkpoint": ("checkpoint", truncated),
    "checkpoint without target stats": ("checkpoint", without_target_stats),
    "checkpoint config with unknown key": ("checkpoint", header_edit(
        "config", "dropout", lambda _: 0.5)),
    "norm_mean of 7 entries": ("checkpoint", header_edit("meta", "norm_mean", lambda v: v[:7])),
    "target_std of 3 entries": ("checkpoint", header_edit("meta", "target_std", lambda v: v[:3])),
    "norm_mean null": ("checkpoint", header_edit("meta", "norm_mean", lambda _: None)),
    "fold not an integer": ("checkpoint", header_edit("meta", "fold", lambda _: "x")),
    "norm_std all zero": ("checkpoint", header_edit("meta", "norm_std",
                                                     lambda v: [0.0] * len(v))),
    "emg rows fewer than timestamps": ("archive", npz_edit(drop_emg_rows)),
    "emg of 7 channels": ("archive", npz_edit(drop_emg_channel)),
    "archive meta without n_angles": ("archive", header_drop("meta", "n_angles")),
    "archive meta n_angles a string": ("archive", header_edit("meta", "n_angles", str)),
    "archive n_angles not its recordings'": ("archive", header_edit(
        "meta", "n_angles", lambda _: 18)),
    "archive meta without mode": ("archive", header_drop("meta", "mode")),
    "archive header a list": ("archive", header_as([1, 2])),
    "checkpoint header a list": ("checkpoint", header_as([1, 2])),
    "checkpoint config hidden_size a string": ("checkpoint", header_edit(
        "config", "hidden_size", lambda _: "x")),
    "checkpoint config hidden_size 1.5": ("checkpoint", header_edit(
        "config", "hidden_size", lambda _: 1.5)),
    "checkpoint config output_angles 15.0": ("checkpoint", header_edit(
        "config", "output_angles", float)),
    "session t_start a string": ("archive", session_edit(lambda s: s.update(t_start="abc"))),
    "session t_start null": ("archive", session_edit(lambda s: s.update(t_start=None))),
    "session without t_end": ("archive", session_edit(lambda s: s.pop("t_end"))),
    "session t_end past its recording": ("archive", session_edit(
        lambda s: s.update(t_end=1e300))),
    "session subject a string": ("archive", session_edit(lambda s: s.update(subject="1"))),
    "session subject 0.5": ("archive", session_edit(lambda s: s.update(subject=0.5))),
    "archive sessions null": ("archive", npz_edit(lambda arrays: rewrite_header(
        arrays, lambda h: h.update(sessions=None)))),
    "zip entries flagged encrypted": ("archive", central_directory_field(8, 1)),
    "unknown zip compression method": ("checkpoint", central_directory_field(10, 99)),
    "npy headers cut off": ("archive", cut_npy_headers),
    "checkpoint npy headers cut off": ("checkpoint", cut_npy_headers),
}


@pytest.mark.parametrize("case", list(CORRUPT))
def test_corrupt_input_exits_io(archive_path, checkpoint_path, tmp_path, capsys, case):
    kind, make = CORRUPT[case]
    bad = tmp_path / "bad.npz"
    make(archive_path if kind == "archive" else checkpoint_path, bad)
    archive = bad if kind == "archive" else archive_path
    checkpoint = bad if kind == "checkpoint" else checkpoint_path
    out_dir, results = tmp_path / "out", tmp_path / "r.csv"
    if kind == "archive":
        assert main(["train", "--archive", str(bad), "--out-dir", str(out_dir),
                     "--hidden", "8", "--predictor-hidden", "8", "--epochs", "1",
                     "--patience", "1"]) == cli.EXIT_IO
        assert not out_dir.exists()
    assert main(["evaluate", "--checkpoint", str(checkpoint), "--archive", str(archive),
                 "--results", str(results)]) == cli.EXIT_IO
    assert "Traceback" not in capsys.readouterr().err
    assert not results.exists()


def test_truncated_npz_leaks_no_file_handle(archive_path, checkpoint_path, tmp_path,
                                            monkeypatch):
    # numpy hands an open file to NpzFile before zipfile rejects a cut
    # container; a loader that opened by path would leave it unclosed
    from myograsp.datapipe import load_archive
    from myograsp.network import load_checkpoint

    unraisable = []   # warnings raised from __del__ land here, not in the caller
    monkeypatch.setattr("sys.unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for load, src in ((load_archive, archive_path), (load_checkpoint, checkpoint_path)):
            bad = tmp_path / f"cut_{src.name}"
            bad.write_bytes(src.read_bytes()[:src.stat().st_size // 2])
            with pytest.raises(DataError, match="cannot read"):
                load(bad)
        gc.collect()
    assert [u.exc_value for u in unraisable] == []


def assert_old_format_exits_config(edit, archive_path, checkpoint_path, tmp_path, capsys):
    """The fixture checkpoint rewritten by the npz ``edit`` is refused as an
    unsupported format by ``load_checkpoint`` and by ``evaluate`` (exit 2,
    no result rows); no converter reads an older format."""
    old, results = tmp_path / "old.npz", tmp_path / "r.csv"
    npz_edit(edit)(checkpoint_path, old)
    with pytest.raises(ConfigError, match="unsupported checkpoint format"):
        load_checkpoint(old)
    assert main(["evaluate", "--checkpoint", str(old), "--archive", str(archive_path),
                 "--results", str(results)]) == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    assert not results.exists()


def test_checkpoint_of_format_1_exits_config(archive_path, checkpoint_path, tmp_path,
                                             capsys):
    # format 1 checkpoints carried grl_lambda and feature_reduction in their config
    def as_format_1(header):
        header["format"] = "myograsp-checkpoint/1"
        header["config"].update(grl_lambda=-1.0, feature_reduction="last-timestep")

    assert_old_format_exits_config(lambda arrays: rewrite_header(arrays, as_format_1),
                                   archive_path, checkpoint_path, tmp_path, capsys)


def test_checkpoint_of_format_2_exits_config(archive_path, checkpoint_path, tmp_path,
                                             capsys):
    # format 2 stored float64 parameters
    def as_format_2(arrays):
        rewrite_header(arrays, lambda header: header.update(format="myograsp-checkpoint/2"))
        for name in arrays:
            if name != "__header__":
                arrays[name] = arrays[name].astype(np.float64)

    assert_old_format_exits_config(as_format_2, archive_path, checkpoint_path, tmp_path,
                                   capsys)


def test_checkpoint_of_format_3_exits_config(archive_path, checkpoint_path, tmp_path,
                                             capsys):
    # format 3 headers carried the layer and channel counts, now constants
    def as_format_3(header):
        header["format"] = "myograsp-checkpoint/3"
        header["config"].update(input_channels=8, num_recurrent_layers=2)

    assert_old_format_exits_config(lambda arrays: rewrite_header(arrays, as_format_3),
                                   archive_path, checkpoint_path, tmp_path, capsys)


def test_non_finite_score_exits_numeric(archive_path, checkpoint_path, tmp_path, capsys):
    # a NaN weight gives NaN predictions: evaluate must not append nan rows
    def nan_weight(arrays):
        name = next(k for k in arrays if k.startswith("predictor."))
        arrays[name] = np.full_like(arrays[name], np.nan)

    bad, results = tmp_path / "bad.npz", tmp_path / "r.csv"
    npz_edit(nan_weight)(checkpoint_path, bad)
    assert main(["evaluate", "--checkpoint", str(bad), "--archive", str(archive_path),
                 "--results", str(results)]) == cli.EXIT_NUMERIC
    assert "Traceback" not in capsys.readouterr().err
    assert not results.exists()


def test_non_finite_gradient_exits_numeric(archive_path, tmp_path, monkeypatch, capsys,
                                           caplog):
    backward = Network.backward

    def poisoned(self, *args):
        grads = backward(self, *args)
        grads["layer0.W_h"][...] = np.nan
        return grads

    monkeypatch.setattr(Network, "backward", poisoned)
    assert main(["train", "--archive", str(archive_path), "--out-dir", str(tmp_path),
                 "--model", "gru", "--protocol", "intra", "--hidden", "8",
                 "--predictor-hidden", "8", "--epochs", "1", "--patience", "1"]) \
        == cli.EXIT_NUMERIC
    assert "Traceback" not in capsys.readouterr().err
    assert "non-finite gradient of layer0.W_h" in caplog.text
    assert not list(tmp_path.glob("*.ckpt"))


def stream_lines(edit):
    """Rewrite the first recording's emg file as edit(its lines)."""
    def make(data):
        path = data / "s0_r0_emg.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return make


def manifest_edit(edit):
    """Rewrite the manifest as edit(its decoded JSON), in place."""
    def make(data):
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest)
        (data / "manifest.json").write_text(json.dumps(manifest))
    return make


CORRUPT_DATASET = {
    "ragged stream row": stream_lines(
        lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:]),
    "non-numeric stream cell": stream_lines(
        lambda lines: lines[:5] + ["x" + lines[5]] + lines[6:]),
    "stream without data rows": stream_lines(lambda lines: lines[:1]),
    "recording without emg": manifest_edit(lambda m: m["recordings"][0].pop("emg")),
    "string emg_rate": manifest_edit(lambda m: m.update(emg_rate="200")),
    "emg_rate at the 20 Hz bound": manifest_edit(lambda m: m.update(emg_rate=20)),
    "200 Hz emg stream under a 400 Hz manifest": manifest_edit(lambda m: m.update(emg_rate=400)),
    "emg_rate 6% off its stream": manifest_edit(lambda m: m.update(emg_rate=212)),
    "angle_rate twice its streams' rate": manifest_edit(
        lambda m: m.update(angle_rate=2 * m["angle_rate"])),
    "recordings not a list": manifest_edit(
        lambda m: m.update(recordings=dict(enumerate(m["recordings"])))),
}


@pytest.mark.parametrize("case", list(CORRUPT_DATASET))
def test_corrupt_dataset_exits_io(dataset_dir, tmp_path, capsys, case):
    data, out = tmp_path / "data", tmp_path / "x.npz"
    shutil.copytree(dataset_dir, data)
    CORRUPT_DATASET[case](data)
    assert main(["preprocess", "--manifest", str(data / "manifest.json"),
                 "--out", str(out)]) == cli.EXIT_IO
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gen_rate, manifest_rate", [(300, None), (200, 208)])
def test_emg_rate_within_tolerance_preprocesses(tmp_path, gen_rate, manifest_rate):
    # a 300 Hz dataset is read at its own rate, and a manifest rate 4% off
    # a 200 Hz stream is within RATE_TOLERANCE
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--emg-rate", str(gen_rate)]
                + SMALL_GEN_ARGS) == 0
    if manifest_rate is not None:
        manifest_edit(lambda m: m.update(emg_rate=manifest_rate))(data)
    assert main(["preprocess", "--manifest", str(data / "manifest.json"),
                 "--out", str(tmp_path / "x.npz")]) == cli.EXIT_OK


# ---------------------------------------------------------------------------
# the exit-code contract under random bad input
# ---------------------------------------------------------------------------

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_NUMERIC}
TRAIN_FLAGS = ["--fold", "--seed", "--hidden", "--predictor-hidden", "--lr", "--epochs",
               "--patience", "--batch-size"]
PREPROCESS_FLAGS = ["--stride"]
GENERATE_FLAGS = ["--seed", "--subjects", "--sessions", "--seconds", "--noise-std",
                  "--emg-rate", "--angle-rate", "--perturbation"]
# zero, negatives, non-finite values and text that is no number; never a
# large positive value, which a size flag would turn into a huge network
BAD_NUMBERS = st.one_of(
    st.just("0"), st.integers(-10 ** 6, -1).map(str),
    st.floats(-1e6, -1e-6).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "0x10", ""]),
    st.text(alphabet="abcefinxyz.,_-+ ", max_size=6),
)
CONTRACT = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:   # argparse rejects a value that does not parse
        return exc.code


def flag_values(flags):
    return st.lists(st.tuples(st.sampled_from(flags), BAD_NUMBERS), min_size=1, max_size=3)


@CONTRACT
@given(values=flag_values(TRAIN_FLAGS))
def test_bad_train_flag_values_keep_exit_contract(archive_path, tmp_path, capsys, values):
    argv = ["train", "--archive", str(archive_path), "--out-dir", str(tmp_path / "out"),
            "--model", "gru", "--protocol", "intra", "--hidden", "8",
            "--predictor-hidden", "8", "--epochs", "1", "--patience", "1",
            "--batch-size", "32"]
    assert exit_code(argv + [f"{flag}={value}" for flag, value in values]) in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err


@CONTRACT
@given(values=flag_values(PREPROCESS_FLAGS))
def test_bad_preprocess_flag_values_keep_exit_contract(dataset_dir, tmp_path, capsys,
                                                       values):
    argv = ["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
            "--out", str(tmp_path / "x.npz")]
    assert exit_code(argv + [f"{flag}={value}" for flag, value in values]) in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err


@CONTRACT
@given(values=flag_values(GENERATE_FLAGS))
def test_bad_generate_flag_values_keep_exit_contract(tmp_path, capsys, values):
    argv = ["generate", "--out", str(tmp_path / "x")] + SMALL_GEN_ARGS
    assert exit_code(argv + [f"{flag}={value}" for flag, value in values]) in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err


def damage(size: int):
    """Edits of a file of ``size`` bytes: ("cut", n) keeps the first n bytes,
    ("flip", [(pos, mask), ...]) XORs a few bytes; positions favour the zip
    and npy headers at either end of the file."""
    where = st.one_of(st.integers(0, 255), st.integers(size - 256, size - 1),
                      st.integers(0, size - 1))
    return st.one_of(st.tuples(st.just("cut"), where),
                     st.tuples(st.just("flip"), st.lists(st.tuples(where, st.integers(1, 255)),
                                                         min_size=1, max_size=4)))


def damaged(raw: bytes, edit) -> bytes:
    how, arg = edit
    if how == "cut":
        return raw[:arg]
    out = bytearray(raw)
    for pos, mask in arg:
        out[pos] ^= mask
    return bytes(out)


@CONTRACT
@given(data=st.data())
def test_damaged_files_keep_exit_contract(archive_path, checkpoint_path, tmp_path, capsys,
                                          data):
    kind = data.draw(st.sampled_from(["archive", "checkpoint"]))
    raw = (archive_path if kind == "archive" else checkpoint_path).read_bytes()
    bad = tmp_path / "bad.npz"
    bad.write_bytes(damaged(raw, data.draw(damage(len(raw)))))
    results = tmp_path / "r.csv"
    results.unlink(missing_ok=True)
    code = exit_code(["evaluate", "--results", str(results),
                      "--checkpoint", str(bad if kind == "checkpoint" else checkpoint_path),
                      "--archive", str(bad if kind == "archive" else archive_path)])
    assert code in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err


# JSON values a checkpoint meta entry, or one entry of its statistics, may
# become: wrong types, non-finite and extreme numbers, nested lists
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
              st.floats(), st.sampled_from([0.0, -1.0, 1e-300, 1e300])),
    lambda inner: st.lists(inner, max_size=9), max_leaves=12)
STAT_KEYS = ["norm_mean", "norm_std", "target_mean", "target_std"]
META_KEYS = ["model", "protocol", "fold", "seed", "ada"] + STAT_KEYS


def meta_edits():
    """("set", key, value), ("drop", key) or ("entry", key, index, value)."""
    return st.lists(st.one_of(
        st.tuples(st.just("set"), st.sampled_from(META_KEYS), JSON_VALUES),
        st.tuples(st.just("drop"), st.sampled_from(META_KEYS)),
        st.tuples(st.just("entry"), st.sampled_from(STAT_KEYS), st.integers(0, 14),
                  JSON_VALUES)), min_size=1, max_size=3)


def apply_meta_edits(meta, edits):
    for how, key, *rest in edits:
        if how == "drop":
            meta.pop(key, None)
        elif how == "set":
            meta[key] = rest[0]
        elif isinstance(meta.get(key), list) and rest[0] < len(meta[key]):
            meta[key][rest[0]] = rest[1]


def result_values(path):
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return [row["value"] for row in csv.DictReader(fh)]


@CONTRACT
@given(edits=meta_edits())
def test_edited_checkpoint_meta_keeps_exit_contract(archive_path, checkpoint_path, tmp_path,
                                                    capsys, edits):
    # byte flips almost never reach a meta value: edit the decoded JSON instead
    bad, results = tmp_path / "bad.npz", tmp_path / "r.csv"
    results.unlink(missing_ok=True)
    npz_edit(lambda arrays: rewrite_header(
        arrays, lambda header: apply_meta_edits(header["meta"], edits)))(checkpoint_path, bad)
    code = exit_code(["evaluate", "--checkpoint", str(bad), "--archive", str(archive_path),
                      "--results", str(results)])
    assert code in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err
    assert all(np.isfinite(float(v)) for v in result_values(results))


CONFIG_KEYS = [f.name for f in dataclasses.fields(NetworkConfig)]
# sizes up to 2**40: load_checkpoint compares the stored arrays with the
# shapes the config implies before it builds a network of that config
CONFIG_VALUES = st.one_of(st.integers(-2, 40), st.integers(41, 2 ** 40),
                          st.sampled_from(["gru", "sru", "lstm", 15.0]),
                          JSON_VALUES.filter(lambda v: type(v) is not int))


@CONTRACT
@given(edits=st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(CONFIG_KEYS), CONFIG_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(CONFIG_KEYS))), min_size=1, max_size=3))
def test_edited_checkpoint_config_keeps_exit_contract(archive_path, checkpoint_path, tmp_path,
                                                      capsys, edits):
    bad, results = tmp_path / "bad.npz", tmp_path / "r.csv"
    results.unlink(missing_ok=True)
    npz_edit(lambda arrays: rewrite_header(
        arrays, lambda header: apply_meta_edits(header["config"], edits)))(checkpoint_path, bad)
    code = exit_code(["evaluate", "--checkpoint", str(bad), "--archive", str(archive_path),
                      "--results", str(results)])
    assert code in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err
    assert all(np.isfinite(float(v)) for v in result_values(results))


ARCHIVE_META_KEYS = ["mode", "n_angles", "emg_rate", "stride", "linear_baseline_nrmse"]
SESSION_KEYS = ["subject", "session", "rows", "t_start", "t_end"]
# what n_angles may become beside JSON_VALUES: the other wrist mode's count
# and near misses of the archive's own 15
N_ANGLES = st.sampled_from([0, 15, 18, 15.0, "15", True])


def archive_meta_edits():
    """("set", key, value) or ("drop", key) over the archive meta's keys, or
    ("session", index, key, value) and ("session", index, key) over the
    session table's rows."""
    return st.lists(st.one_of(
        st.tuples(st.just("set"), st.sampled_from(ARCHIVE_META_KEYS), JSON_VALUES),
        st.tuples(st.just("set"), st.just("n_angles"), N_ANGLES),
        st.tuples(st.just("drop"), st.sampled_from(ARCHIVE_META_KEYS)),
        st.tuples(st.just("session"), st.integers(0, 5), st.sampled_from(SESSION_KEYS),
                  JSON_VALUES),
        st.tuples(st.just("session"), st.integers(0, 5), st.sampled_from(SESSION_KEYS))),
        min_size=1, max_size=3)


def apply_archive_edits(header, edits):
    for how, *rest in edits:
        if how != "session":
            apply_meta_edits(header["meta"], [(how, *rest)])
        elif len(rest) == 3:
            header["sessions"][rest[0]][rest[1]] = rest[2]
        else:
            header["sessions"][rest[0]].pop(rest[1], None)


@CONTRACT
@given(edits=archive_meta_edits())
def test_edited_archive_meta_keeps_exit_contract(archive_path, checkpoint_path, tmp_path,
                                                 capsys, edits):
    bad, out_dir, results = tmp_path / "bad.npz", tmp_path / "out", tmp_path / "r.csv"
    shutil.rmtree(out_dir, ignore_errors=True)
    results.unlink(missing_ok=True)
    npz_edit(lambda arrays: rewrite_header(
        arrays, lambda header: apply_archive_edits(header, edits)))(archive_path, bad)
    code = exit_code(["train", "--archive", str(bad), "--out-dir", str(out_dir),
                      "--model", "gru", "--protocol", "intra", "--hidden", "4",
                      "--predictor-hidden", "4", "--epochs", "1", "--patience", "1",
                      "--batch-size", "64"])
    assert code in EXIT_CODES
    assert code == cli.EXIT_OK or not out_dir.exists()   # a bad meta stops it before training
    code = exit_code(["evaluate", "--checkpoint", str(checkpoint_path), "--archive", str(bad),
                      "--results", str(results)])
    assert code in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err
    assert all(np.isfinite(float(v)) for v in result_values(results))


STREAM_FILES = [f"s{s}_r{r}_{kind}.csv" for s in range(2) for r in range(3)
                for kind in ("emg", "angles")]
MANIFEST_KEYS = ["mode", "n_angles", "emg_rate", "angle_rate", "recordings",
                 "linear_baseline_nrmse"]
RECORDING_KEYS = ["subject", "session", "emg", "angles"]


def manifest_edits():
    """("set", key, value), ("drop", key) or ("entry", index, key, value)."""
    return st.lists(st.one_of(
        st.tuples(st.just("set"), st.sampled_from(MANIFEST_KEYS), JSON_VALUES),
        st.tuples(st.just("drop"), st.sampled_from(MANIFEST_KEYS)),
        st.tuples(st.just("entry"), st.integers(0, 6), st.sampled_from(RECORDING_KEYS),
                  JSON_VALUES)), max_size=3)


def apply_manifest_edits(manifest, edits):
    for how, *rest in edits:
        if how == "drop":
            manifest.pop(rest[0], None)
        elif how == "set":
            manifest[rest[0]] = rest[1]
        else:
            entries = manifest.get("recordings")
            index, key, value = rest
            if isinstance(entries, list) and index < len(entries) and isinstance(
                    entries[index], dict):
                entries[index][key] = value


@CONTRACT
@given(data=st.data())
def test_damaged_dataset_keeps_exit_contract(dataset_dir, tmp_path, capsys, data):
    copy = tmp_path / "data"
    shutil.copytree(dataset_dir, copy, dirs_exist_ok=True)
    stream = copy / data.draw(st.sampled_from(STREAM_FILES))
    raw = stream.read_bytes()
    edit = data.draw(st.none() | damage(len(raw)))
    if edit is not None:
        stream.write_bytes(damaged(raw, edit))
    manifest_edit(lambda m: apply_manifest_edits(m, data.draw(manifest_edits())))(copy)
    code = exit_code(["preprocess", "--manifest", str(copy / "manifest.json"),
                      "--out", str(tmp_path / "x.npz")])
    assert code in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err


FIELD_TEXT = st.one_of(st.sampled_from(["nan", "inf", "0.5", "", "sru", "true"]),
                       st.text(alphabet="abc01.,\"\n -e", max_size=6))


@CONTRACT
@given(header=st.one_of(st.just(cli.RESULTS_HEADER.split(",")),
                        st.lists(FIELD_TEXT, max_size=8)),
       rows=st.lists(st.lists(FIELD_TEXT, max_size=9), max_size=4))
def test_malformed_results_keep_exit_contract(tmp_path, capsys, header, rows):
    results = tmp_path / "r.csv"
    with open(results, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    assert exit_code(["report", "--results", str(results)]) in EXIT_CODES
    assert "Traceback" not in capsys.readouterr().err


class TestReport:
    def make_results(self, path, rows):
        path.write_text("metric,model,protocol,ada,fold,seed,value\n"
                        + "\n".join(rows) + "\n")

    def test_aggregation_two_seeds(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        self.make_results(results, [
            "nrmse,sru,intra-session,false,0,0,0.20",
            "nrmse,sru,intra-session,false,0,1,0.10",
        ])
        out = tmp_path / "agg.csv"
        assert main(["report", "--results", str(results), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "metric,model,protocol,ada,mean,std,n"
        metric, model, protocol, ada, mean, std, n = lines[1].split(",")
        assert float(mean) == pytest.approx(0.15)
        assert float(std) == pytest.approx(0.05)   # population std over 2 runs
        assert n == "2"

    def test_single_run_std_zero(self, tmp_path):
        results = tmp_path / "results.csv"
        self.make_results(results, ["rmse,gru,intra-session,false,0,0,12.5"])
        out = tmp_path / "agg.csv"
        assert main(["report", "--results", str(results), "--out", str(out)]) == 0
        assert out.read_text().strip().splitlines()[1].split(",")[5] == "0"

    def test_dash_cells_for_missing_combos(self, tmp_path, capsys):
        # a gaussian-process-style baseline without ADA rows renders "-"
        results = tmp_path / "results.csv"
        self.make_results(results, [
            "nrmse,gaussian-process,intra-session,false,0,0,0.24",
            "nrmse,gaussian-process,inter-session,false,0,0,0.19",
            "nrmse,sru,intra-session,false,0,0,0.15",
        ])
        assert main(["report", "--results", str(results)]) == 0
        table = capsys.readouterr().out
        gp_line = next(l for l in table.splitlines() if "gaussian-process" in l)
        assert gp_line.count("-") >= 3
        assert "0.1900" in gp_line

    def test_empty_results_fails(self, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("metric,model,protocol,ada,fold,seed,value\n")
        assert main(["report", "--results", str(results)]) == cli.EXIT_IO

    @pytest.mark.parametrize("text", [
        b"metric,model,protocol,ada,fold,seed\nnrmse,sru,intra-session,false,0,0\n",
        b"metric,model,protocol,ada,fold,seed,value\nnrmse,sru,intra-session,false,0,0,x\n",
        b"metric,model,protocol,ada,fold,seed,value\nnrmse,sru,intra-session\n",
        b"metric,model,protocol,ada,fold,seed,value\n\xff\xfe,sru\n",
    ], ids=["wrong header", "non-numeric value", "short row", "not utf-8"])
    def test_malformed_results_exit_io(self, tmp_path, capsys, text):
        results = tmp_path / "results.csv"
        results.write_bytes(text)
        assert main(["report", "--results", str(results)]) == cli.EXIT_IO
        assert "Traceback" not in capsys.readouterr().err


class TestConfigFileParsing:
    def test_comments_and_whitespace(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\n  stride = 32  # trailing\n")
        assert cli.read_config_file(cfg) == {"stride": "32"}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("stride 32\n")
        with pytest.raises(cli.ConfigError):
            cli.read_config_file(cfg)

    def test_undecodable_file_exits_config(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"stride = 32  # \xff\xfe latin-1 text\n")
        with pytest.raises(cli.ConfigError, match="cannot read config file"):
            cli.read_config_file(cfg)
        assert main(["preprocess", "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path / "x.npz"), "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x.npz").exists()

    def test_boolean_coercion(self):
        assert cli._coerce("true", bool) is True
        assert cli._coerce("0", bool) is False
        with pytest.raises(cli.ConfigError):
            cli._coerce("maybe", bool)


# ---------------------------------------------------------------------------
# the CLI surface: every config flag by name, and the field it sets
# ---------------------------------------------------------------------------

CLI_SURFACE = {
    "generate": (["--out", "o"],
                 "--subjects 2 --sessions 3 --seconds 14.5 --mode mobile --emg-rate 300 "
                 "--angle-rate 150 --noise-std 2.5 --perturbation 0.5 --seed 7",
                 synthgen.SynthConfig(
                     n_subjects=2, sessions_per_subject=3, session_seconds=14.5,
                     mode="mobile", emg_rate=300.0, angle_rate=150.0, noise_std=2.5,
                     subject_mixing_perturbation=0.5, seed=7)),
    "preprocess": (["--manifest", "m.json", "--out", "a.npz"], "--stride 16",
                   cli.PreprocessConfig(stride=16)),
    "train": (["--archive", "a.npz", "--out-dir", "c"],
              "--model sru --protocol inter-subject --fold 1 --ada --seed 3 --hidden 16 "
              "--predictor-hidden 12 --lr 0.01 --epochs 5 --patience 4 --batch-size 16",
              TrainRunConfig(model="sru", protocol="inter-subject", fold=1, ada=True, seed=3,
                             hidden=16, predictor_hidden=12, learning_rate=0.01,
                             max_epochs=5, patience=4, batch_size=16)),
}


def test_every_short_flag_names_a_config_field():
    # an entry whose field is gone would sit in the table unnoticed
    names = {f.name for _, _, expected in CLI_SURFACE.values()
             for f in dataclasses.fields(expected)}
    assert set(cli.SHORT_FLAGS) <= names, set(cli.SHORT_FLAGS) - names


class Resolved(Exception):
    """Carries the config a command resolved, before the command runs."""


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_every_config_flag_sets_its_field(monkeypatch, command):
    required, flags, expected = CLI_SURFACE[command]
    # every field is set to a value other than its default, so each flag shows
    for field in dataclasses.fields(expected):
        assert getattr(expected, field.name) != field.default, field.name
    resolve = cli.resolve_config

    def capture(*args, **kwargs):
        raise Resolved(resolve(*args, **kwargs))

    monkeypatch.setattr(cli, "resolve_config", capture)
    with pytest.raises(Resolved) as exc:
        main([command] + required + flags.split())
    cfg = exc.value.args[0]
    assert cfg == expected
    assert ([type(v) for v in dataclasses.astuple(cfg)]
            == [type(v) for v in dataclasses.astuple(expected)])


@pytest.mark.parametrize("command", ["generate", "preprocess", "train", "evaluate", "report"])
def test_help_exits_ok(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: myograsp {command}")
