import io
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myograsp import datapipe
from myograsp.datapipe import (AlignedRecording, RawStream, WindowSet, align,
                               channel_stats, concat_windows, lowpass,
                               make_windows)
from myograsp.errors import DataError, EmptyOverlapError
from myograsp.numerics import make_rng


def stream(ts, frames, kind="emg", subject=0, session=0, rate=200.0):
    return RawStream(subject_id=subject, session_id=session, kind=kind,
                     timestamps_ms=np.asarray(ts, dtype=float),
                     frames=np.asarray(frames, dtype=float),
                     nominal_rate=rate)


def emg_stream(ts, values=None):
    ts = np.asarray(ts, dtype=float)
    frames = np.tile(np.arange(8.0), (len(ts), 1)) if values is None else values
    return stream(ts, frames, kind="emg")


def angle_stream(ts, n_angles=15):
    ts = np.asarray(ts, dtype=float)
    frames = np.outer(np.arange(len(ts), dtype=float), np.ones(n_angles))
    return stream(ts, frames, kind="angles", rate=100.0)


def csv_bytes(data, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        datapipe.write_csv(path, header, data)
        with open(path, "rb") as fh:
            return fh.read()


def savetxt_bytes(data, header):
    out = io.BytesIO()
    np.savetxt(out, data, fmt="%.6f", delimiter=",", header=header, comments="")
    return out.getvalue()


@st.composite
def csv_arrays(draw):
    """float64 arrays of 0 to 3 blocks of rows and 1-20 columns.

    Random numbers at a drawn scale fill the array, so blocks take both the
    array path and the fallback, and up to eight cells get any float64 at all
    (NaN, infinities, -0.0, subnormals, up to the largest finite).
    """
    rows = draw(st.integers(0, 3 * datapipe.CSV_BLOCK_ROWS))
    cols = draw(st.integers(1, 20))
    scale = draw(st.sampled_from([1e-6, 1.0, 130.0, 6e4, 1e7, 1e300]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = rng.uniform(-scale, scale, size=(rows, cols))
    special = st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 0.0078125,
                               -4e-7, 9999999.9999996, 59999.9999995])
    values = st.one_of(special, st.floats())
    if data.size:
        cells = st.tuples(st.integers(0, data.size - 1), values)
        for index, value in draw(st.lists(cells, max_size=8)):
            data.flat[index] = value
    return data


class TestRawStreamValidation:
    def test_non_increasing_timestamps(self):
        with pytest.raises(DataError, match="increasing"):
            emg_stream([0.0, 5.0, 5.0]).validate()

    def test_emg_range(self):
        bad = np.full((3, 8), 200.0)
        with pytest.raises(DataError, match="128"):
            emg_stream([0, 5, 10], bad).validate()

    def test_emg_channel_count(self):
        with pytest.raises(DataError, match="8 channels"):
            stream([0, 5], np.zeros((2, 4)), kind="emg").validate()

    def test_empty(self):
        with pytest.raises(DataError, match="empty"):
            stream([], np.zeros((0, 8)), kind="emg").validate()


class TestAlign:
    def test_nearest_neighbour_by_hand(self):
        # emg@[0,5,10] x angles@[2,14] -> pairs (0->2), (5->2), (10->14)
        rec = align(emg_stream([0.0, 5.0, 10.0]), angle_stream([2.0, 14.0]))
        np.testing.assert_array_equal(rec.timestamps_ms, [0.0, 5.0, 10.0])
        np.testing.assert_array_equal(rec.angles[:, 0], [0.0, 0.0, 1.0])

    def test_gap_over_threshold_dropped(self):
        with pytest.raises(EmptyOverlapError):
            align(emg_stream([30.0]), angle_stream([2.0, 14.0]))

    def test_identical_grids_zero_gap(self):
        ts = np.arange(0.0, 100.0, 5.0)
        rec = align(emg_stream(ts), angle_stream(ts))
        assert len(rec) == len(ts)
        np.testing.assert_array_equal(rec.angles[:, 0], np.arange(len(ts)))

    def test_partial_drop(self):
        rec = align(emg_stream([0.0, 5.0, 100.0]), angle_stream([2.0, 14.0]))
        np.testing.assert_array_equal(rec.timestamps_ms, [0.0, 5.0])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_all_output_gaps_within_threshold(self, seed):
        rng = make_rng(seed)
        et = np.cumsum(rng.uniform(3.0, 7.0, size=50))
        at = np.cumsum(rng.uniform(5.0, 25.0, size=30))
        try:
            rec = align(emg_stream(et), angle_stream(at))
        except EmptyOverlapError:
            return
        pos = np.searchsorted(at, rec.timestamps_ms)
        left = np.clip(pos - 1, 0, len(at) - 1)
        right = np.clip(pos, 0, len(at) - 1)
        best = np.minimum(np.abs(rec.timestamps_ms - at[left]),
                          np.abs(at[right] - rec.timestamps_ms))
        assert np.all(best <= datapipe.MAX_GAP_MS)

    def test_subject_mismatch(self):
        other = angle_stream([0.0, 10.0])
        other.subject_id = 3
        with pytest.raises(DataError):
            align(emg_stream([0.0, 5.0]), other)


class TestLowpass:
    def test_constant_signal_unchanged(self):
        x = np.full(500, 3.7)
        out = lowpass(x, 200.0, 10.0)
        np.testing.assert_allclose(out, 3.7, rtol=0, atol=1e-9)
        assert len(out) == len(x)

    @pytest.mark.parametrize("cutoff", [10.0, 4.0])
    def test_cutoff_amplitude_ratio_is_half(self, cutoff):
        # two-pass Butterworth squares the -3 dB point: ratio ~ 0.5
        rate = 200.0
        t = np.arange(int(rate * 30)) / rate
        x = np.sin(2 * np.pi * cutoff * t)
        y = lowpass(x, rate, cutoff)
        trim = int(2 * rate)
        ratio = np.abs(y[trim:-trim]).max() / 1.0
        assert abs(ratio - 0.5) < 0.05

    def test_stopband_rejection(self):
        rate = 200.0
        t = np.arange(int(rate * 30)) / rate
        x = np.sin(2 * np.pi * 40.0 * t)   # 4x the 10 Hz cutoff
        y = lowpass(x, rate, 10.0)
        trim = int(2 * rate)
        assert np.abs(y[trim:-trim]).max() < 0.01

    def test_linearity(self):
        rng = make_rng(0)
        x = rng.normal(size=400)
        y = rng.normal(size=400)
        a, b = 2.5, -1.25
        left = lowpass(a * x + b * y, 200.0, 10.0)
        right = a * lowpass(x, 200.0, 10.0) + b * lowpass(y, 200.0, 10.0)
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_multichannel_axis(self):
        rng = make_rng(1)
        x = rng.normal(size=(300, 8))
        out = lowpass(x, 200.0, 10.0)
        assert out.shape == x.shape
        np.testing.assert_allclose(out[:, 2], lowpass(x[:, 2], 200.0, 10.0),
                                   atol=1e-12)

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            lowpass(np.zeros(100), 200.0, 100.0)


def recording(rows, n_angles=15, subject=0, session=0, t0=0.0):
    ts = t0 + np.arange(rows) * 5.0
    rng = make_rng(rows * 31 + subject * 7 + session)
    return AlignedRecording(subject_id=subject, session_id=session,
                            timestamps_ms=ts,
                            emg=rng.normal(size=(rows, 8)),
                            angles=rng.normal(size=(rows, n_angles)))


class TestMakeWindows:
    def test_exactly_one_window(self):
        rec = recording(128)
        ws = make_windows(rec, stride=17)
        assert len(ws) == 1
        x, y = ws.materialize(np.array([0]))
        np.testing.assert_array_equal(x[0], rec.emg)
        np.testing.assert_array_equal(y[0], rec.angles[-1])
        assert ws.end_ts[0] == rec.timestamps_ms[-1]

    def test_window_count_formula(self):
        # (200 - 128) // 8 + 1 = 10, targets at rows 127, 135, ..., 199
        ws = make_windows(recording(200), stride=8)
        assert len(ws) == 10
        np.testing.assert_array_equal(ws.start_row, np.arange(0, 73, 8))

    def test_recording_too_short(self):
        with pytest.raises(DataError):
            make_windows(recording(127), stride=8)

    @given(st.integers(128, 2000), st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_count_formula_property(self, rows, stride):
        ws = make_windows(recording(rows), stride=stride)
        assert len(ws) == (rows - 128) // stride + 1

    def test_target_margin(self):
        # margin drops windows whose target sits in the last rows
        ws = make_windows(recording(256), stride=8, target_margin=64)
        assert np.all(ws.start_row + 127 < 256 - 64)
        full = make_windows(recording(256), stride=8)
        assert len(ws) < len(full)

    def test_concat_and_metadata(self):
        a = make_windows(recording(150, subject=1, session=2), stride=8)
        b = make_windows(recording(140, subject=3, session=4, t0=1e6), stride=8)
        both = concat_windows([a, b])
        assert len(both) == len(a) + len(b)
        assert set(both.subject_ids) == {1, 3}
        x, y = both.materialize(np.arange(len(both)))
        assert x.shape == (len(both), 128, 8)
        assert y.shape == (len(both), 15)

    def test_targets_are_last_row_angles(self):
        both = concat_windows([make_windows(recording(300, subject=1), stride=8),
                               make_windows(recording(260, subject=2, t0=1e6), stride=5)])
        idx = make_rng(4).permutation(len(both))[:25]
        expected = [both.recordings[r].angles[s + datapipe.WINDOW_SIZE - 1]
                    for r, s in zip(both.rec_index[idx], both.start_row[idx])]
        np.testing.assert_array_equal(both.targets(idx), expected)
        np.testing.assert_array_equal(both.materialize(idx)[1], expected)
        assert both.targets(idx[:0]).shape == (0, 15)


def window_set_of(windows):
    """A WindowSet whose windows materialise to exactly ``windows`` (N, WINDOW_SIZE, 8)."""
    n, t, _ = windows.shape
    rec = AlignedRecording(subject_id=0, session_id=0, timestamps_ms=np.arange(n * t) * 5.0,
                           emg=windows.reshape(n * t, 8), angles=np.zeros((n * t, 15)))
    return make_windows(rec, stride=t)


class TestNormalize:
    """channel_stats fits on training windows; NormStats.apply standardises."""

    def test_standardized_data_is_fixed_point(self):
        rng = make_rng(0)
        w = rng.normal(size=(20, 128, 8))
        flat = w.reshape(-1, 8)
        w = (w - flat.mean(axis=0)) / flat.std(axis=0)
        stats = channel_stats(window_set_of(w), np.arange(len(w)))
        np.testing.assert_allclose(stats.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(stats.std, 1.0, atol=1e-12)
        np.testing.assert_allclose(stats.apply(w), w, atol=1e-10)

    def test_constant_channel_clamped_with_warning(self):
        w = make_rng(1).normal(size=(5, 128, 8))
        w[:, :, 3] = 42.0
        with pytest.warns(UserWarning):
            stats = channel_stats(window_set_of(w), np.arange(len(w)))
        assert stats.std[3] == 1.0
        np.testing.assert_array_equal(stats.apply(w)[:, :, 3], 0.0)

    def test_train_stats_applied_to_shifted_test_reveal_shift(self):
        rng = make_rng(2)
        train = rng.normal(size=(30, 128, 8))
        stats = channel_stats(window_set_of(train), np.arange(len(train)))
        out = stats.apply(train + 5.0)
        assert np.all(out.reshape(-1, 8).mean(axis=0) > 1.0)

    @pytest.mark.parametrize("value", [0.1, 1 / 3, 42.0, -7.7])
    def test_every_constant_channel_clamped(self, value):
        # E[x^2] - mean^2 rounds to a tiny positive variance for 0.1 and 1/3;
        # comparing every covered value with the first catches each constant
        w = make_rng(1).normal(size=(5, 128, 8))
        w[:, :, 3] = value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = channel_stats(window_set_of(w), np.arange(len(w)))
        assert [c.category for c in caught] == [UserWarning]
        assert stats.std[3] == 1.0 and stats.mean[3] == value
        np.testing.assert_array_equal(stats.apply(w)[:, :, 3], 0.0)
        assert np.all(stats.std[[0, 1, 2, 4, 5, 6, 7]] != 1.0)

    def test_nearly_constant_channel_keeps_its_std(self):
        # a std within 1e-6 of the mean sends the channel to the exact
        # comparison, which finds values that differ: no clamp, no warning
        w = make_rng(3).normal(size=(5, 128, 8))
        w[:, :, 3] = 1000.0 + 1e-7 * w[:, :, 3]
        stats = channel_stats(window_set_of(w), np.arange(len(w)))
        assert stats.std[3] < 1e-6 * stats.mean[3]
        np.testing.assert_allclose(stats.std[3], w[:, :, 3].std(), rtol=1e-5)

    def test_streamed_stats_match(self):
        rec = recording(400)
        ws = make_windows(rec, stride=8)
        idx = np.arange(len(ws))
        stats = channel_stats(ws, idx)
        x, _ = ws.materialize(idx)
        flat = x.reshape(-1, 8)
        np.testing.assert_allclose(stats.mean, flat.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(stats.std, flat.std(axis=0), atol=1e-10)

    @pytest.mark.parametrize("block_rows", [datapipe.STATS_BLOCK_ROWS, 100])
    def test_match_exact_sums_over_materialised_windows(self, monkeypatch, block_rows):
        # two recordings cut at different strides, a third the subset skips,
        # rows no window covers between covered ones, indices out of order
        # with repeats, and runs of covered rows cut into pieces or not
        monkeypatch.setattr(datapipe, "STATS_BLOCK_ROWS", block_rows)
        recs = [recording(900, subject=s) for s in range(3)]
        for k, rec in enumerate(recs):
            rec.emg += 3.0 + np.arange(8) * (k + 1)
        ws = concat_windows([make_windows(recs[0], stride=8),
                             make_windows(recs[1], stride=5),
                             make_windows(recs[2], stride=3)])
        first = np.flatnonzero((ws.rec_index == 0)
                               & ((ws.start_row < 200) | (ws.start_row > 600)))
        second = np.flatnonzero(ws.rec_index == 1)
        rng = make_rng(6)
        idx = rng.permutation(np.concatenate([first, rng.permutation(second)[:60],
                                              second[[3, 3, 3, 40, -1]]]))
        stats = channel_stats(ws, idx)
        flat = ws.materialize(idx)[0].reshape(-1, 8)
        mean = np.array([math.fsum(col) / len(col) for col in flat.T])
        std = np.sqrt([math.fsum((col - m) ** 2) / len(col) for col, m in zip(flat.T, mean)])
        np.testing.assert_allclose(stats.mean, mean, rtol=1e-14, atol=0)
        np.testing.assert_allclose(stats.std, std, rtol=1e-14, atol=0)

    def test_statistics_never_materialise_windows(self, monkeypatch):
        def refuse(self, idx):
            raise AssertionError("channel_stats materialised windows")

        ws = make_windows(recording(600), stride=4)
        expected = channel_stats(ws, np.arange(len(ws)))
        monkeypatch.setattr(WindowSet, "materialize", refuse)
        stats = channel_stats(ws, np.arange(len(ws)))
        np.testing.assert_array_equal(stats.mean, expected.mean)
        np.testing.assert_array_equal(stats.std, expected.std)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            channel_stats(make_windows(recording(128), stride=8), np.array([], dtype=np.int64))

    @pytest.mark.parametrize("block_rows", [4096, 40])
    def test_squares_in_place_peak_and_bits(self, monkeypatch, block_rows):
        # each piece's deviations are squared in place in one scratch array, not
        # beside it: the peak stays near the tiled mean and scratch of one piece
        # plus the per-row counts of the recording, and the statistics are the
        # ones squaring into a copy gives, bit for bit
        monkeypatch.setattr(datapipe, "STATS_BLOCK_ROWS", block_rows)
        rec = recording(128 + 8 * 999)
        rows = len(rec.emg)
        ws = make_windows(rec, stride=8)
        idx = np.arange(len(ws))
        tracemalloc.start()
        try:
            stats = channel_stats(ws, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 8 * min(block_rows, rows) + 4 * 8 * (rows + 1)

        weights = np.zeros(rows)
        for s in ws.start_row[idx]:
            weights[s:s + datapipe.WINDOW_SIZE] += 1
        pieces = [(rec.emg[a:a + block_rows], weights[a:a + block_rows])
                  for a in range(0, rows, block_rows)]
        count = len(idx) * datapipe.WINDOW_SIZE
        mean = sum(w @ emg for emg, w in pieces) / count
        dev, dev_sq = np.zeros(8), np.zeros(8)
        for emg, w in pieces:
            d = emg - mean
            dev += w @ d
            dev_sq += w @ (d ** 2)
        np.testing.assert_array_equal(stats.mean, mean)
        np.testing.assert_array_equal(
            stats.std, np.sqrt(np.maximum(dev_sq - dev ** 2 / count, 0.0) / count))

    def test_peak_is_rows_of_one_recording(self):
        # stride 1 puts every row in 128 windows (160 MB of them materialised);
        # the statistics read the rows, so the peak stays near one recording
        recs = [recording(20_000, subject=s) for s in range(2)]
        ws = concat_windows([make_windows(rec, stride=1) for rec in recs])
        idx = np.arange(len(ws))
        tracemalloc.start()
        try:
            channel_stats(ws, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * recs[0].emg.nbytes


class TestFileFormats:
    def test_stream_csv_roundtrip(self, tmp_path):
        rng = make_rng(3)
        ts = np.cumsum(rng.uniform(4.0, 6.0, size=40))
        frames = rng.uniform(-100, 100, size=(40, 8))
        s = emg_stream(ts, frames)
        path = tmp_path / "s0_r0_emg.csv"
        datapipe.write_stream_csv(path, s)
        header = path.read_text().splitlines()[0]
        assert header == "timestamp_ms,ch0,ch1,ch2,ch3,ch4,ch5,ch6,ch7"
        loaded = datapipe.read_stream_csv(path, 0, 0, "emg", 200.0)
        np.testing.assert_allclose(loaded.timestamps_ms, ts, atol=1e-6)
        np.testing.assert_allclose(loaded.frames, frames, atol=1e-6)

    @pytest.mark.parametrize("rows", [0, 1, datapipe.CSV_BLOCK_ROWS - 1,
                                      datapipe.CSV_BLOCK_ROWS, datapipe.CSV_BLOCK_ROWS + 1,
                                      2 * datapipe.CSV_BLOCK_ROWS + 3])
    def test_csv_bytes_equal_savetxt(self, tmp_path, rows):
        rng = make_rng(rows)
        # -0.0, values that round to 6 decimals across a sign, an integer
        # digit or a tie, near the emg clip and near a 60 s clock in ms
        special = [-0.0, 0.0, -4e-7, 4e-7, 0.0078125, -0.0078125, 127.9999995,
                   -127.9999996, 128.0, -128.0, 59999.9999995, 60000.0000005, 6e4, -6e4]
        data = rng.choice(special, size=(rows, 9)) + rng.choice(
            [0.0, 1e-9, -1e-9], size=(rows, 9))
        data[:, 1] = rng.uniform(-128.0, 128.0, size=rows)
        data[:, 2] = np.resize(special, rows)
        header = "timestamp_ms," + ",".join(f"ch{i}" for i in range(8))
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        datapipe.write_csv(ours, header, data)
        np.savetxt(ref, data, fmt="%.6f", delimiter=",", header=header, comments="")
        assert ours.read_bytes() == ref.read_bytes()

    @given(data=csv_arrays(), header=st.sampled_from(["", "t,x"]))
    @settings(max_examples=60, deadline=None)
    def test_csv_bytes_equal_savetxt_any_float(self, data, header):
        assert csv_bytes(data, header) == savetxt_bytes(data, header)

    def test_emg_block_takes_array_path(self):
        rng = make_rng(5)
        block = np.column_stack([5e4 + np.cumsum(rng.uniform(4.0, 6.0, 256)),
                                 rng.uniform(-128.0, 128.0, size=(256, 8))])
        text = datapipe._format_block(block)
        assert text is not None
        assert text == savetxt_bytes(block, "")

    def test_csv_rounding_boundaries(self):
        # (k + 0.5) / 1e6, one ulp either side, and values whose product
        # with 1e6 carries into a new integer digit or stays a signed zero
        ties = np.array([0.5, 12.5, 1234567.5, 59999999999.5, 9999999999999.5]) / 1e6
        values = np.concatenate([[9999999.9999996, 4e-7, 59999.9999995, 0.0078125], ties,
                                 np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
        for x in np.concatenate([values, -values]):
            block = np.array([[x]])
            assert csv_bytes(block, "") == savetxt_bytes(block, ""), x
            assert datapipe._format_block(block) in (None, b"%.6f\n" % x), x
        assert csv_bytes(np.array([[-4e-7, 9999999.9999996]]), "") == \
            b"-0.000000,10000000.000000\n"
        # below the tie, but its product with 1e6 rounds onto 59999999999.5:
        # only the fallback prints it right
        below = np.nextafter(59999.9999995, 0.0)
        assert below * 1e6 == 59999999999.5
        assert datapipe._format_block(np.array([[below]])) is None
        assert csv_bytes(np.array([[below]]), "") == b"59999.999999\n"
        # one ulp off a tie whose product stays off it takes the array path
        off = np.array([[np.nextafter(12.5e-6, 0.0), np.nextafter(12.5e-6, 1.0)]])
        assert datapipe._format_block(off) == b"0.000012,0.000013\n"

    @pytest.mark.parametrize("block_rows", [1, 7, 10 ** 6])
    def test_csv_bytes_independent_of_block_rows(self, monkeypatch, block_rows):
        rng = make_rng(block_rows)
        plain = rng.uniform(-128.0, 128.0, size=(50, 3))
        mixed = plain.copy()
        mixed[::9, 1] = 0.0078125          # an exact tie every ninth row
        mixed[4, 2] = np.nan
        monkeypatch.setattr(datapipe, "CSV_BLOCK_ROWS", block_rows)
        for data in (plain, mixed):
            assert csv_bytes(data, "a,b,c") == savetxt_bytes(data, "a,b,c")

    def test_stream_csv_without_rows(self, tmp_path):
        path = tmp_path / "s0_r0_emg.csv"
        path.write_text("timestamp_ms," + ",".join(f"ch{i}" for i in range(8)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows") as info:
                datapipe.read_stream_csv(path, 0, 0, "emg", 200.0)
        assert str(path) in str(info.value)

    def test_archive_roundtrip_and_idempotence(self, tmp_path):
        ws = concat_windows([make_windows(recording(300, subject=0, session=0), stride=8),
                             make_windows(recording(280, subject=0, session=1, t0=5e5),
                                          stride=8)])
        meta = {"mode": "immobile", "n_angles": 15, "emg_rate": 200.0, "stride": 8}
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        datapipe.save_archive(p1, ws, meta)
        datapipe.save_archive(p2, ws, meta)
        assert p1.read_bytes() == p2.read_bytes()
        loaded, loaded_meta = datapipe.load_archive(p1)
        assert loaded_meta["mode"] == "immobile"
        assert len(loaded_meta["sessions"]) == 2
        assert len(loaded) == len(ws)
        np.testing.assert_array_equal(loaded.start_row, ws.start_row)
        x1, y1 = ws.materialize(np.arange(len(ws)))
        x2, y2 = loaded.materialize(np.arange(len(ws)))
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_archive_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, x=np.ones(3))
        with pytest.raises(DataError):
            datapipe.load_archive(path)

    def test_manifest_missing_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"mode": "immobile"}')
        with pytest.raises(DataError, match="n_angles"):
            datapipe.read_manifest(path)


def test_preprocess_session_end_to_end():
    rng = make_rng(9)
    n = 1200
    et = np.arange(n) * 5.0 + rng.uniform(-1, 1, size=n)
    at = np.arange(n // 2) * 10.0 + rng.uniform(-1, 1, size=n // 2)
    emg = emg_stream(et, rng.uniform(-50, 50, size=(n, 8)))
    base = np.sin(np.arange(n // 2) / 40.0)
    ang = stream(at, np.outer(base, np.ones(15)) * 30 + 45, kind="angles", rate=100.0)
    ws, rec = datapipe.preprocess_session(emg, ang, stride=8)
    assert ws.materialize([0])[0].shape == (1, datapipe.WINDOW_SIZE, 8)
    # margin keeps targets away from both filtered ends
    assert np.all(ws.start_row + 127 >= datapipe.EDGE_MARGIN_ROWS)
    assert np.all(ws.start_row + 127 < len(rec) - datapipe.EDGE_MARGIN_ROWS)


class TestWindowBounds:
    @pytest.mark.parametrize("rec_index, start_row", [
        ([1], [0]), ([-1], [0]), ([0], [-1]), ([0], [200 - 127]), ([0, 0], [0]),
    ])
    def test_out_of_range_index_is_data_error(self, rec_index, start_row):
        with pytest.raises(DataError):
            WindowSet([recording(200)], rec_index, start_row)

    def test_last_window_fits(self):
        ws = WindowSet([recording(200)], [0], [200 - 128])
        assert ws.end_ts[0] == ws.recordings[0].timestamps_ms[-1]
