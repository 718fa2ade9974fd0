import numpy as np
import pytest

from myograsp import splits
from myograsp.datapipe import AlignedRecording, concat_windows, make_windows
from myograsp.errors import ConfigError, DataError
from myograsp.numerics import derive_rng, make_rng
from myograsp.splits import (EXCLUDED, TEST, TRAIN, VALIDATION, carve_periods,
                             inter_session_split, inter_subject_split,
                             intra_session_split, make_split)

RATE_MS = 5.0  # 200 Hz


def fake_dataset(n_subjects=2, n_sessions=3, seconds=36.0, stride=32, seed=0):
    """Window set + session table over synthetic aligned recordings."""
    sets = []
    sessions = []
    rows = int(seconds * 1000.0 / RATE_MS)
    for subject in range(n_subjects):
        for session in range(n_sessions):
            rng = derive_rng(seed, subject, session)
            ts = np.arange(rows) * RATE_MS
            rec = AlignedRecording(subject_id=subject, session_id=session,
                                   timestamps_ms=ts,
                                   emg=rng.normal(size=(rows, 8)),
                                   angles=rng.normal(size=(rows, 15)))
            sets.append(make_windows(rec, 128, stride))
            sessions.append({"subject": subject, "session": session,
                             "t_start": float(ts[0]), "t_end": float(ts[-1])})
    return concat_windows(sets), sessions


class TestCarvePeriods:
    def test_240s_session_gives_20_blocks(self):
        # aligned span is a frame short of 240 s; still 20 blocks
        periods = carve_periods(0.0, 239995.0, make_rng(0))
        assert len(periods) == 20
        for p0, p1 in periods:
            assert abs((p1 - p0) - 3000.0) < 1e-6

    def test_12s_session_gives_one_block(self):
        periods = carve_periods(0.0, 11995.0, make_rng(0))
        assert len(periods) == 1

    def test_partial_tail_block_hosts_a_period(self):
        # 200 s: 16 full blocks + an 8 s tail long enough for 3 s
        periods = carve_periods(0.0, 199995.0, make_rng(0))
        assert len(periods) == 17

    def test_too_short_session(self):
        with pytest.raises(DataError, match="block"):
            carve_periods(0.0, 9000.0, make_rng(0))

    def test_periods_stay_inside_their_blocks(self):
        for seed in range(10):
            periods = carve_periods(0.0, 239995.0, make_rng(seed))
            for k, (p0, p1) in enumerate(periods):
                assert p0 >= k * 12000.0
                assert p1 <= min((k + 1) * 12000.0, 239995.0)

    def test_gross_holdout_arithmetic(self):
        # 20 periods x 3 s held out of 240 s leaves 180 s gross training time
        periods = carve_periods(0.0, 239995.0, make_rng(1))
        held = sum(p1 - p0 for p0, p1 in periods)
        assert abs(held - 60000.0) < 1e-5


def window_intervals(ws, idx):
    return ws.start_ts[idx], ws.end_ts[idx]


def assert_no_train_overlap(ws, plan):
    """No training window may share time with any held-out period."""
    for i in plan.indices(TRAIN):
        key = (int(ws.subject_ids[i]), int(ws.session_ids[i]))
        for p0, p1, _ in plan.periods.get(key, []):
            assert not (ws.start_ts[i] < p1 and ws.end_ts[i] >= p0), \
                f"train window {i} overlaps period ({p0}, {p1})"


class TestIntraSession:
    def test_assignments_exhaustive_and_disjoint(self):
        ws, sessions = fake_dataset()
        plan = intra_session_split(ws, sessions, seed=0)
        assert plan.assignment.shape == (len(ws),)
        assert set(np.unique(plan.assignment)) <= {TRAIN, VALIDATION, TEST, EXCLUDED}
        counts = plan.counts()
        assert counts["train"] > 0 and counts["validation"] > 0 and counts["test"] > 0

    def test_no_training_window_overlaps_heldout_period(self):
        ws, sessions = fake_dataset(seconds=60.0, stride=8)
        plan = intra_session_split(ws, sessions, seed=3)
        assert_no_train_overlap(ws, plan)

    def test_validation_and_test_windows_inside_periods(self):
        ws, sessions = fake_dataset(seconds=48.0, stride=16)
        plan = intra_session_split(ws, sessions, seed=1)
        for code in (VALIDATION, TEST):
            for i in plan.indices(code):
                key = (int(ws.subject_ids[i]), int(ws.session_ids[i]))
                inside = any(ws.start_ts[i] >= p0 and ws.end_ts[i] < p1
                             for p0, p1, c in plan.periods[key] if c == code)
                assert inside

    def test_balanced_period_halves(self):
        ws, sessions = fake_dataset(n_subjects=1, n_sessions=1, seconds=240.0,
                                    stride=64)
        plan = intra_session_split(ws, sessions, seed=5)
        codes = [c for _, _, c in plan.periods[(0, 0)]]
        n_val = sum(1 for c in codes if c == VALIDATION)
        n_test = sum(1 for c in codes if c == TEST)
        assert n_val + n_test == 20
        assert abs(n_val - n_test) <= 1

    def test_odd_period_count_coin(self):
        # 36 s -> 3 blocks -> 3 periods; the extra one lands on either side
        extra_side = set()
        for seed in range(40):
            ws, sessions = fake_dataset(n_subjects=1, n_sessions=1,
                                        seconds=36.0, stride=64, seed=1)
            plan = intra_session_split(ws, sessions, seed=seed)
            codes = [c for _, _, c in plan.periods[(0, 0)]]
            n_val = sum(1 for c in codes if c == VALIDATION)
            assert abs(n_val - (3 - n_val)) <= 1
            extra_side.add(n_val)
        assert extra_side == {1, 2}

    def test_determinism(self):
        ws, sessions = fake_dataset()
        a = intra_session_split(ws, sessions, seed=7)
        b = intra_session_split(ws, sessions, seed=7)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_no_domain_labels(self):
        ws, sessions = fake_dataset()
        plan = intra_session_split(ws, sessions, seed=0)
        assert plan.num_domains == 0
        np.testing.assert_array_equal(plan.domain_labels, -1)


class TestInterSession:
    def test_ten_sessions_two_per_fold(self):
        ws, sessions = fake_dataset(n_subjects=2, n_sessions=5)
        plan = inter_session_split(ws, sessions, fold=0, seed=0)
        test_keys = {(int(ws.subject_ids[i]), int(ws.session_ids[i]))
                     for i in plan.indices(TEST)}
        assert len(test_keys) == 2
        train_keys = {(int(ws.subject_ids[i]), int(ws.session_ids[i]))
                      for i in plan.indices(TRAIN)}
        assert len(train_keys) == 8
        assert not (test_keys & train_keys)

    def test_union_of_test_folds_covers_everything_once(self):
        ws, sessions = fake_dataset(n_subjects=2, n_sessions=5)
        seen = np.zeros(len(ws), dtype=int)
        for fold in range(5):
            plan = inter_session_split(ws, sessions, fold=fold, seed=0)
            seen[plan.indices(TEST)] += 1
        np.testing.assert_array_equal(seen, 1)

    def test_session_disjointness(self):
        ws, sessions = fake_dataset(n_subjects=2, n_sessions=5)
        for fold in range(5):
            plan = inter_session_split(ws, sessions, fold=fold, seed=2)
            test_keys = {(int(ws.subject_ids[i]), int(ws.session_ids[i]))
                         for i in plan.indices(TEST)}
            other = {(int(ws.subject_ids[i]), int(ws.session_ids[i]))
                     for i in np.flatnonzero(plan.assignment != TEST)}
            assert not (test_keys & other)

    def test_validation_carved_from_training_sessions(self):
        ws, sessions = fake_dataset(n_subjects=2, n_sessions=5, seconds=48.0)
        plan = inter_session_split(ws, sessions, fold=1, seed=0)
        val_keys = {(int(ws.subject_ids[i]), int(ws.session_ids[i]))
                    for i in plan.indices(VALIDATION)}
        test_keys = {(int(ws.subject_ids[i]), int(ws.session_ids[i]))
                     for i in plan.indices(TEST)}
        assert val_keys and not (val_keys & test_keys)
        assert_no_train_overlap(ws, plan)

    def test_domain_labels_index_training_sessions(self):
        ws, sessions = fake_dataset(n_subjects=2, n_sessions=5)
        plan = inter_session_split(ws, sessions, fold=0, seed=0)
        train_labels = plan.domain_labels[plan.indices(TRAIN)]
        assert plan.num_domains == 8
        assert set(train_labels) == set(range(8))
        assert np.all(plan.domain_labels[plan.indices(TEST)] == -1)

    def test_determinism(self):
        ws, sessions = fake_dataset(n_subjects=2, n_sessions=5)
        a = inter_session_split(ws, sessions, fold=3, seed=9)
        b = inter_session_split(ws, sessions, fold=3, seed=9)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        np.testing.assert_array_equal(a.domain_labels, b.domain_labels)

    def test_too_few_sessions(self):
        ws, sessions = fake_dataset(n_subjects=1, n_sessions=3)
        with pytest.raises(DataError):
            inter_session_split(ws, sessions, fold=0, seed=0)

    def test_bad_fold(self):
        ws, sessions = fake_dataset(n_subjects=2, n_sessions=5)
        with pytest.raises(ConfigError):
            inter_session_split(ws, sessions, fold=5, seed=0)


class TestInterSubject:
    def test_test_subject_never_in_training(self):
        ws, sessions = fake_dataset(n_subjects=5, n_sessions=2)
        for fold in range(5):
            plan = inter_subject_split(ws, sessions, fold=fold, seed=0)
            test_subjects = set(ws.subject_ids[plan.indices(TEST)])
            assert test_subjects == {fold}
            assert fold not in set(ws.subject_ids[plan.indices(TRAIN)])
            assert fold not in set(ws.subject_ids[plan.indices(VALIDATION)])

    def test_domain_count_is_subjects_minus_one(self):
        ws, sessions = fake_dataset(n_subjects=5, n_sessions=2)
        plan = inter_subject_split(ws, sessions, fold=2, seed=0)
        assert plan.num_domains == 4
        labels = plan.domain_labels[plan.indices(TRAIN)]
        assert set(labels) == {0, 1, 2, 3}

    def test_union_of_test_folds_covers_everything(self):
        ws, sessions = fake_dataset(n_subjects=5, n_sessions=2)
        seen = np.zeros(len(ws), dtype=int)
        for fold in range(5):
            plan = inter_subject_split(ws, sessions, fold=fold, seed=0)
            seen[plan.indices(TEST)] += 1
        np.testing.assert_array_equal(seen, 1)

    def test_single_subject_rejected(self):
        ws, sessions = fake_dataset(n_subjects=1, n_sessions=2)
        with pytest.raises(DataError):
            inter_subject_split(ws, sessions, fold=0, seed=0)

    def test_no_train_window_overlap(self):
        ws, sessions = fake_dataset(n_subjects=3, n_sessions=2, seconds=48.0,
                                    stride=8)
        plan = inter_subject_split(ws, sessions, fold=0, seed=4)
        assert_no_train_overlap(ws, plan)


class TestMakeSplitAndAudit:
    def test_protocol_dispatch(self):
        ws, sessions = fake_dataset(n_subjects=2, n_sessions=3)
        assert make_split("intra", ws, sessions, 0, 0).protocol == "intra-session"
        assert make_split("inter-session", ws, sessions, 0, 0).protocol == "inter-session"
        assert make_split("inter-subject", ws, sessions, 1, 0).protocol == "inter-subject"
        with pytest.raises(ConfigError):
            make_split("bootstrap", ws, sessions, 0, 0)

    def test_audit_csv(self, tmp_path):
        ws, sessions = fake_dataset()
        plan = intra_session_split(ws, sessions, seed=0)
        path = tmp_path / "plan.csv"
        plan.to_csv(path, ws)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(ws)
        assert lines[0].startswith("sample_id,protocol,fold")
