import tracemalloc

import numpy as np
import pytest

from myograsp import datapipe, splits, synthgen
from myograsp.errors import ConfigError, DataError
from myograsp.experiment import TrainRunConfig, checkpoint_name, prepare_run, synthesize
from myograsp.training import TargetStats, TrainConfig
from training_helpers import UNRUNNABLE


@pytest.fixture(scope="module")
def dataset():
    cfg = synthgen.SynthConfig(n_subjects=3, sessions_per_subject=2,
                               session_seconds=16.0, seed=2)
    return synthesize(cfg, stride=64)


def small(**kw):
    return TrainRunConfig(hidden=4, predictor_hidden=4, max_epochs=1, patience=1, **kw)


class TestPrepareRun:
    def test_statistics_come_from_the_train_split(self, dataset):
        ws, sessions, _ = dataset
        run = prepare_run(ws, sessions, small(protocol="inter-subject", fold=1, seed=3))
        train_idx = run.plan.indices(splits.TRAIN)
        np.testing.assert_array_equal(run.train_src.indices, train_idx)
        np.testing.assert_array_equal(run.val_src.indices,
                                      run.plan.indices(splits.VALIDATION))
        assert run.train_src.domains is None and run.net.discriminator is None
        ref = datapipe.channel_stats(ws, train_idx)
        np.testing.assert_array_equal(run.stats.mean, ref.mean)
        np.testing.assert_array_equal(run.stats.std, ref.std)
        ref_t = TargetStats.fit(ws.materialize(train_idx)[1])
        np.testing.assert_array_equal(run.target_stats.mean, ref_t.mean)
        assert run.train_config.seed == 3 and run.train_config.max_epochs == 1

    def test_ada_run_carries_domains(self, dataset):
        ws, sessions, _ = dataset
        run = prepare_run(ws, sessions, small(protocol="inter-subject", ada=True))
        np.testing.assert_array_equal(
            run.train_src.domains, run.plan.domain_labels[run.plan.indices(splits.TRAIN)])
        assert run.net.config.num_domains == run.plan.num_domains == 2

    def test_empty_validation_split_is_data_error(self):
        # on a 25 ms clock a window spans 3.2 s, longer than a 3 s held-out
        # period, so it never fits inside one
        rows = 36 * 40
        rec = datapipe.AlignedRecording(0, 0, np.arange(rows) * 25.0,
                                        np.ones((rows, 8)), np.ones((rows, 15)))
        ws = datapipe.make_windows(rec, stride=16)
        with pytest.raises(DataError, match="empty"):
            prepare_run(ws, datapipe.session_table(ws.recordings), small())

    def test_target_statistics_do_not_materialise_windows(self):
        # channel_stats reads recording rows, not windows, so prepare_run's
        # peak must stay far below the 8 KiB per training window that
        # materialising them would take
        rows = 60 * 200
        rng = np.random.default_rng(0)
        rec = datapipe.AlignedRecording(0, 0, np.arange(rows) * 5.0,
                                        rng.normal(size=(rows, 8)), rng.normal(size=(rows, 15)))
        ws = datapipe.make_windows(rec, stride=8)
        sessions = datapipe.session_table(ws.recordings)
        tracemalloc.start()
        try:
            run = prepare_run(ws, sessions, small())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_train = len(run.train_src)
        window_bytes = datapipe.WINDOW_SIZE * 8 * 8
        assert n_train > 500
        assert peak < n_train * window_bytes / 4
        ref = TargetStats.fit(ws.materialize(run.train_src.indices)[1])
        np.testing.assert_array_equal(run.target_stats.mean, ref.mean)
        np.testing.assert_array_equal(run.target_stats.std, ref.std)


class TestTrainRunConfig:
    @pytest.mark.parametrize("kw", [{"model": "lstm"}, {"ada": True},
                                    {"ada": True, "protocol": "intra-session"}])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            TrainRunConfig(**kw)

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            TrainRunConfig(protocol="bootstrap")


    def test_negative_fold(self):
        with pytest.raises(ValueError, match="fold"):
            TrainRunConfig(fold=-1)

    @pytest.mark.parametrize("name,value", UNRUNNABLE, ids=lambda v: str(v))
    def test_loop_settings_checked_by_train_config(self, name, value):
        # one validator: the run config reports exactly what TrainConfig does
        with pytest.raises(ValueError) as run_error:
            TrainRunConfig(**{name: value})
        with pytest.raises(ValueError) as loop_error:
            TrainConfig(**{name: value})
        assert str(run_error.value) == str(loop_error.value)


def test_checkpoint_name_accepts_aliases():
    assert checkpoint_name("gru", "intra", 0, 1, False) == "gru_intra-session_fold0_seed1"
    assert (checkpoint_name("sru", "inter-subject", 2, 0, True)
            == "sru_inter-subject_fold2_seed0_ada")


def test_synthesize_matches_per_session_pipeline(dataset):
    ws, sessions, floor = dataset
    cfg = synthgen.SynthConfig(n_subjects=3, sessions_per_subject=2,
                               session_seconds=16.0, seed=2)
    emg, ang, _ = synthgen.generate_session(cfg, 0, 0)
    assert floor == synthgen.linear_baseline_nrmse(emg, ang)
    first, rec = datapipe.preprocess_session(emg, ang, stride=64)
    np.testing.assert_array_equal(ws.start_row[:len(first)], first.start_row)
    assert [(s["subject"], s["session"]) for s in sessions] == [
        (a, b) for a in range(3) for b in range(2)]
    assert sessions[0]["rows"] == len(rec)
    assert sessions[0]["t_end"] == float(rec.timestamps_ms[-1])
