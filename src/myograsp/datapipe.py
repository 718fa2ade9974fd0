"""Preprocessing: raw two-stream recordings to windowed training samples.

The pipeline per (subject, session):

1. align the 200 Hz emg stream with the slower angle stream by pairing every
   emg frame with its nearest-in-time angle frame, dropping pairs farther
   apart than 10 ms;
2. low-pass both columns of the aligned table (emg at 10 Hz, angles at 4 Hz)
   with a 4th-order Butterworth applied forward-backward, so the filter has
   zero phase and unit DC gain;
3. cut sliding windows of 128 consecutive emg rows; the target is the angle
   vector at each window's last row.

Windows are kept as (recording, start_row) indices and materialised per
batch, which avoids duplicating overlapping window data in memory.  Channel
statistics never materialise windows: each covered emg row counts once per
window over it, so they cost O(rows) however far the windows overlap.
"""

from __future__ import annotations

import functools
import io
import json
import logging
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, filtfilt

from .errors import NPZ_READ_ERRORS, DataError, EmptyOverlapError

log = logging.getLogger("myograsp.datapipe")

__all__ = [
    "RawStream",
    "AlignedRecording",
    "WindowSet",
    "NormStats",
    "WindowSource",
    "align",
    "lowpass",
    "make_windows",
    "concat_windows",
    "channel_stats",
    "read_stream_csv",
    "write_csv",
    "write_stream_csv",
    "read_manifest",
    "session_table",
    "save_archive",
    "load_archive",
    "preprocess_session",
    "WINDOW_SIZE",
    "EMG_CUTOFF_HZ",
    "ANGLE_CUTOFF_HZ",
    "MAX_GAP_MS",
    "NYQUIST_RATE_HZ",
    "FILTER_ORDER",
    "EDGE_MARGIN_ROWS",
    "ARCHIVE_FORMAT",
]

WINDOW_SIZE = 128
EMG_CUTOFF_HZ = 10.0
ANGLE_CUTOFF_HZ = 4.0
MAX_GAP_MS = 10.0
# both columns are filtered at the emg rate, which must lie above this
NYQUIST_RATE_HZ = 2 * max(EMG_CUTOFF_HZ, ANGLE_CUTOFF_HZ)
FILTER_ORDER = 4
# rows at each end of a filtered recording whose targets are not trusted
EDGE_MARGIN_ROWS = 64
ARCHIVE_FORMAT = "myograsp-archive/1"
# rows per piece of channel_stats' passes: two scratch arrays of 256 KB, in cache
STATS_BLOCK_ROWS = 4096
# rows formatted per block by write_csv: on 60 s streams 1024 wrote about 8%
# faster than 512 and as fast as 2048 or 4096, with a block's temporaries near 1 MB
CSV_BLOCK_ROWS = 1024


@dataclass
class RawStream:
    subject_id: int
    session_id: int
    kind: str                 # "emg" or "angles"
    timestamps_ms: np.ndarray  # (N,), strictly increasing
    frames: np.ndarray         # (N, C)
    nominal_rate: float

    def validate(self) -> "RawStream":
        ts = np.asarray(self.timestamps_ms, dtype=np.float64)
        fr = np.asarray(self.frames, dtype=np.float64)
        if self.kind not in ("emg", "angles"):
            raise DataError(f"unknown stream kind {self.kind!r}")
        if ts.ndim != 1 or fr.ndim != 2 or len(ts) != len(fr):
            raise DataError(f"stream shape mismatch: {ts.shape} timestamps, {fr.shape} frames")
        if len(ts) == 0:
            raise DataError("empty stream")
        if np.any(np.diff(ts) <= 0):
            raise DataError("timestamps must be strictly increasing")
        if self.kind == "emg":
            if fr.shape[1] != 8:
                raise DataError(f"emg streams carry 8 channels, got {fr.shape[1]}")
            if np.any(np.abs(fr) > 128):
                raise DataError("emg values must lie within [-128, +128]")
        self.timestamps_ms = ts
        self.frames = fr
        return self


@dataclass
class AlignedRecording:
    subject_id: int
    session_id: int
    timestamps_ms: np.ndarray  # (M,)
    emg: np.ndarray            # (M, 8)
    angles: np.ndarray         # (M, A)

    def __len__(self):
        return len(self.timestamps_ms)


def align(emg: RawStream, angles: RawStream) -> AlignedRecording:
    """Pair each emg frame with the nearest-in-time angle frame.

    Pairs whose timestamp difference exceeds ``MAX_GAP_MS`` are dropped;
    raises EmptyOverlapError when nothing survives.
    """
    emg.validate()
    angles.validate()
    if (emg.subject_id, emg.session_id) != (angles.subject_id, angles.session_id):
        raise DataError("streams to align must come from the same subject and session")
    if emg.kind != "emg" or angles.kind != "angles":
        raise DataError("align expects (emg, angles) streams in that order")

    et = emg.timestamps_ms
    at = angles.timestamps_ms
    pos = np.searchsorted(at, et)
    left = np.clip(pos - 1, 0, len(at) - 1)
    right = np.clip(pos, 0, len(at) - 1)
    pick = np.where(np.abs(et - at[left]) <= np.abs(at[right] - et), left, right)
    gaps = np.abs(et - at[pick])
    keep = gaps <= MAX_GAP_MS
    if not np.any(keep):
        raise EmptyOverlapError(
            f"subject {emg.subject_id} session {emg.session_id}: no emg/angle pairs "
            f"within {MAX_GAP_MS} ms")
    dropped = int((~keep).sum())
    if dropped:
        log.debug("align s%d r%d: dropped %d of %d frames (gap > %.1f ms)",
                  emg.subject_id, emg.session_id, dropped, len(et), MAX_GAP_MS)
    return AlignedRecording(
        subject_id=emg.subject_id,
        session_id=emg.session_id,
        timestamps_ms=et[keep].copy(),
        emg=emg.frames[keep].copy(),
        angles=angles.frames[pick[keep]].copy(),
    )


def lowpass(values: np.ndarray, sample_rate: float, cutoff: float) -> np.ndarray:
    """Zero-phase Butterworth low-pass along axis 0, length preserving.

    Forward-backward application squares the magnitude response, so the
    amplitude ratio at the cutoff frequency is ~0.5 instead of -3 dB.
    """
    if cutoff >= sample_rate / 2:
        raise ValueError(f"cutoff {cutoff} Hz must be below Nyquist ({sample_rate / 2} Hz)")
    values = np.asarray(values, dtype=np.float64)
    b, a = butter(FILTER_ORDER, cutoff, btype="low", fs=sample_rate)
    if values.shape[0] <= 3 * max(len(a), len(b)):
        raise DataError(f"{values.shape[0]} rows are too few for zero-phase "
                        f"filtering at order {FILTER_ORDER}")
    return filtfilt(b, a, values, axis=0)


def filter_recording(rec: AlignedRecording, sample_rate: float) -> AlignedRecording:
    """Low-pass both columns of an aligned table (align first, then filter)."""
    return AlignedRecording(
        subject_id=rec.subject_id,
        session_id=rec.session_id,
        timestamps_ms=rec.timestamps_ms,
        emg=lowpass(rec.emg, sample_rate, EMG_CUTOFF_HZ),
        angles=lowpass(rec.angles, sample_rate, ANGLE_CUTOFF_HZ),
    )


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

class WindowSet:
    """Sliding windows of ``WINDOW_SIZE`` rows over recordings, stored as indices."""

    def __init__(self, recordings: list, rec_index: np.ndarray, start_row: np.ndarray):
        self.recordings = recordings
        self.rec_index = np.asarray(rec_index, dtype=np.int32)
        self.start_row = np.asarray(start_row, dtype=np.int64)
        self._check_bounds()
        self._metadata()

    def _check_bounds(self):
        ri, sr = self.rec_index, self.start_row
        rows = np.array([len(rec) for rec in self.recordings], dtype=np.int64)
        if (ri.ndim != 1 or ri.shape != sr.shape or np.any(ri < 0) or np.any(ri >= len(rows))
                or np.any(sr < 0) or np.any(sr + WINDOW_SIZE > rows[ri])):
            raise DataError(f"window index runs outside its {len(rows)} recordings")

    def _metadata(self):
        n = len(self.rec_index)
        self.subject_ids = np.empty(n, dtype=np.int32)
        self.session_ids = np.empty(n, dtype=np.int32)
        self.start_ts = np.empty(n, dtype=np.float64)
        self.end_ts = np.empty(n, dtype=np.float64)
        for ri, rec in enumerate(self.recordings):
            mask = self.rec_index == ri
            if not np.any(mask):
                continue
            starts = self.start_row[mask]
            self.subject_ids[mask] = rec.subject_id
            self.session_ids[mask] = rec.session_id
            self.start_ts[mask] = rec.timestamps_ms[starts]
            self.end_ts[mask] = rec.timestamps_ms[starts + WINDOW_SIZE - 1]

    def __len__(self):
        return len(self.rec_index)

    @property
    def n_angles(self) -> int:
        return self.recordings[0].angles.shape[1]

    def _rows(self, idx: np.ndarray):
        """(recording, start row) of each sample index, as Python ints."""
        return zip(self.rec_index[idx].tolist(), self.start_row[idx].tolist())

    def targets(self, idx: np.ndarray) -> np.ndarray:
        """Targets (k, A) of sample indices: the angles at each window's last row."""
        idx = np.asarray(idx)
        y = np.empty((len(idx), self.n_angles))
        for j, (r, s) in enumerate(self._rows(idx)):
            y[j] = self.recordings[r].angles[s + WINDOW_SIZE - 1]
        return y

    def materialize(self, idx: np.ndarray):
        """Gather (windows (k, WINDOW_SIZE, 8), targets (k, A)) for sample indices."""
        idx = np.asarray(idx)
        x = np.empty((len(idx), WINDOW_SIZE, 8))
        for j, (r, s) in enumerate(self._rows(idx)):
            x[j] = self.recordings[r].emg[s:s + WINDOW_SIZE]
        return x, self.targets(idx)


def make_windows(rec: AlignedRecording, *, stride: int = 8,
                 target_margin: int = 0) -> WindowSet:
    """Cut sliding windows of ``WINDOW_SIZE`` consecutive rows from one recording.

    The target of each window is the angle vector at its last row.  Windows
    whose target falls within ``target_margin`` rows of either end of the
    recording are dropped (filter transients live there).
    """
    m = len(rec)
    if m < WINDOW_SIZE:
        raise DataError(f"recording has {m} rows; need at least {WINDOW_SIZE} for one window")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    starts = np.arange(0, m - WINDOW_SIZE + 1, stride, dtype=np.int64)
    if target_margin > 0:
        tgt = starts + WINDOW_SIZE - 1
        starts = starts[(tgt >= target_margin) & (tgt < m - target_margin)]
    return WindowSet([rec], np.zeros(len(starts), dtype=np.int32), starts)


def concat_windows(sets: list) -> WindowSet:
    if not sets:
        raise ValueError("nothing to concatenate")
    recordings = []
    rec_index = []
    start_row = []
    for ws in sets:
        offset = len(recordings)
        recordings.extend(ws.recordings)
        rec_index.append(ws.rec_index + offset)
        start_row.append(ws.start_row)
    return WindowSet(recordings, np.concatenate(rec_index), np.concatenate(start_row))


# ---------------------------------------------------------------------------
# channel statistics
# ---------------------------------------------------------------------------

@dataclass
class NormStats:
    mean: np.ndarray  # (8,)
    std: np.ndarray   # (8,)

    def apply(self, windows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(windows - mean) / std, written into ``out`` when given (may be ``windows``)."""
        out = np.subtract(windows, self.mean, out=out)
        out /= self.std
        return out


def _covered_runs(window_set: WindowSet, indices: np.ndarray) -> list:
    """(emg rows, row weights) of each run of rows that the windows cover,
    cut into pieces of at most ``STATS_BLOCK_ROWS`` rows.

    A row's weight is the number of windows over it, a repeated index
    counting each time: per recording, a difference array over the window
    starts, then a cumulative sum.
    """
    rec_of = window_set.rec_index[indices]
    starts = window_set.start_row[indices]
    runs = []
    for r in np.unique(rec_of):
        emg = window_set.recordings[r].emg
        s = starts[rec_of == r]
        edges = np.bincount(s, minlength=len(emg) + 1)
        edges -= np.bincount(s + WINDOW_SIZE, minlength=len(emg) + 1)
        weights = np.cumsum(edges[:-1]).astype(np.float64)
        bounds = np.flatnonzero(np.diff(weights > 0, prepend=False, append=False))
        for lo, hi in bounds.reshape(-1, 2).tolist():
            for a in range(lo, hi, STATS_BLOCK_ROWS):
                b = min(a + STATS_BLOCK_ROWS, hi)
                runs.append((emg[a:b], weights[a:b]))
    return runs


def channel_stats(window_set: WindowSet, indices: np.ndarray) -> NormStats:
    """Training-set channel statistics, taken from the recording rows.

    Fit on the training split only and applied (``NormStats.apply``) to
    validation and test windows, so nothing leaks from held-out rows.  The
    statistics are those of the materialised windows, but each covered emg
    row is read once per pass, weighted by the number of windows over it,
    so time and memory are O(rows).  The variance is taken about the mean
    by the corrected two-pass formula of Chan, Golub & LeVeque (1983).

    A channel whose covered values are all equal is constant: its mean is
    exactly that value and its std is clamped to 1 with a warning, so it
    normalises to exactly 0.  Only a channel whose std comes out at most
    ``1e-6 * |mean|`` has its values compared: rounding leaves a constant
    channel's std below ``(n + 2) * 2**-53 * |mean|`` for n covered rows,
    under that threshold for any n below about 9e9.
    """
    indices = np.asarray(indices)
    if len(indices) == 0:
        raise ValueError("channel_stats needs a non-empty training set")
    runs = _covered_runs(window_set, indices)
    count = len(indices) * WINDOW_SIZE
    mean = sum(w @ emg for emg, w in runs) / count
    # the mean tiled to whole rows: a same-shape subtraction runs about
    # twice as fast as one broadcasting (8,) over every row
    longest = max(len(w) for _, w in runs)
    tiled, scratch = np.tile(mean, longest), np.empty(8 * longest)
    dev, dev_sq = np.zeros(8), np.zeros(8)
    for emg, w in runs:
        n = emg.size
        d = np.subtract(emg.reshape(-1), tiled[:n], out=scratch[:n]).reshape(emg.shape)
        dev += w @ d
        dev_sq += w @ np.square(d, out=d)
    std = np.sqrt(np.maximum(dev_sq - dev ** 2 / count, 0.0) / count)
    constant = False
    for c in np.flatnonzero(std <= 1e-6 * np.abs(mean)):
        first = runs[0][0][0, c]
        if all((emg[:, c] == first).all() for emg, _ in runs):
            mean[c], std[c], constant = first, 1.0, True
    if constant:
        warnings.warn("zero-variance channel; std clamped to 1")
    return NormStats(mean=mean, std=std)


class WindowSource:
    """Batch source over a WindowSet subset; normalises at materialisation."""

    def __init__(self, window_set: WindowSet, indices: np.ndarray, stats: NormStats,
                 domains: np.ndarray | None = None):
        self.window_set = window_set
        self.indices = np.asarray(indices)
        self.stats = stats
        self.domains = None if domains is None else np.asarray(domains, dtype=np.int64)
        if self.domains is not None and len(self.domains) != len(self.indices):
            raise ValueError("domain labels must match index count")

    def __len__(self):
        return len(self.indices)

    def batch(self, idx: np.ndarray):
        x, y = self.window_set.materialize(self.indices[idx])
        d = None if self.domains is None else self.domains[idx]
        return self.stats.apply(x, out=x), y, d


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _digit_table(width: int, min_digits: int) -> np.ndarray:
    """ASCII digits of 0 .. 10**width - 1, one number per little-endian uint64.

    A number's first digit sits in byte 0 and its last in byte ``width - 1``;
    zero digits in front of the last ``min_digits`` digits are zero bytes,
    which ``_format_block`` drops.
    """
    k = np.arange(10 ** width, dtype=np.uint64)
    table = np.zeros_like(k)
    for i in range(width):
        place = np.uint64(10 ** (width - 1 - i))
        digit = k // place % np.uint64(10) + np.uint64(ord("0"))
        keep = (k >= place) | (place < 10 ** min_digits)
        table |= np.where(keep, digit, np.uint64(0)) << np.uint64(8 * i)
    return table


@functools.cache
def _word_tables() -> tuple:
    """Digit tables of ``_format_block``, already shifted into place.

    Each value is written as two little-endian uint64 words:
      word 0: byte 0 the sign, bytes 1-4 the integer part without its last
              three digits, bytes 5-7 those three digits (zero-padded when
              more precede);
      word 1: ".", the six fraction digits, then "," or a newline.
    Built on first use, so processes that write no CSV never allocate them.
    """
    tables = (_digit_table(4, 0) << np.uint64(8),
              np.concatenate([_digit_table(3, 1), _digit_table(3, 3)]) << np.uint64(40),
              _digit_table(3, 3) << np.uint64(8) | np.uint64(ord(".")),
              _digit_table(3, 3) << np.uint64(32))
    for table in tables:
        table.flags.writeable = False
    return tables


_COMMA, _NEWLINE = (np.uint64(ord(c)) << np.uint64(56) for c in ",\n")


def _format_block(block: np.ndarray) -> bytes | None:
    """CSV lines of ``%.6f`` values of a 2-D float64 block, or None where not exact.

    With s = |x| * 1e6 rounded to float64, ``rint(s)`` is the half-even
    rounding of the exact product that ``%.6f`` prints unless s lies exactly
    on k + 0.5: rounding to nearest cannot carry the product across a
    representable half-integer without landing on it.  Returns None when any
    value is such a tie, is not finite, or rounds to 1e13 or more (eight or
    more integer digits).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(block) * 1e6
        micro = np.rint(scaled)
        # NaN, also from inf - inf, fails both comparisons
        if not ((np.abs(scaled - micro) < 0.5).all() and micro.max() < 1e13):
            return None
    int_high, int_low, frac_high, frac_low = _word_tables()
    micro = micro.astype(np.int64)
    milli = micro // 1000
    whole = milli // 1000
    high = whole // 1000
    words = np.empty(block.shape + (2,), dtype="<u8")
    head, tail = words[..., 0], words[..., 1]
    np.take(int_low, whole - high * 1000 + (high > 0) * 1000, out=head)
    head |= int_high[high]
    head |= np.signbit(block) * np.uint64(ord("-"))
    np.take(frac_high, milli - whole * 1000, out=tail)
    tail |= frac_low[micro - milli * 1000]
    tail[:, :-1] |= _COMMA
    tail[:, -1] |= _NEWLINE
    return words.tobytes().translate(None, b"\0")


def write_csv(path, header: str, data: np.ndarray) -> None:
    """A header line, then one line of comma-separated ``%.6f`` values per row.

    The bytes equal ``np.savetxt(path, data, fmt="%.6f", delimiter=",",
    header=header, comments="")``.  Blocks of ``CSV_BLOCK_ROWS`` rows are
    formatted with array operations (``_format_block``), which is exact
    unless a value is not finite, has |x| * 1e6 round to 1e13 or more, or has
    |x| * 1e6 land on a half-integer in float64.  A block holding such a value
    is formatted by one ``%`` over a repeated row format, the per-value
    formatting savetxt uses.
    """
    data = np.asarray(data, dtype=np.float64)
    row = ",".join(["%.6f"] * data.shape[1]) + "\n"
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode("latin1") + b"\n")
        for lo in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[lo:lo + CSV_BLOCK_ROWS]
            text = _format_block(block)
            if text is None:
                text = (row * len(block) % tuple(block.ravel().tolist())).encode("latin1")
            fh.write(text)


def write_stream_csv(path, stream: RawStream) -> None:
    """CSV with header timestamp_ms,ch0..ch7 (emg) or timestamp_ms,angle0..N."""
    prefix = "ch" if stream.kind == "emg" else "angle"
    cols = stream.frames.shape[1]
    header = "timestamp_ms," + ",".join(f"{prefix}{i}" for i in range(cols))
    write_csv(path, header, np.column_stack([stream.timestamps_ms, stream.frames]))


def read_stream_csv(path, subject_id: int, session_id: int, kind: str,
                    nominal_rate: float) -> RawStream:
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file without data rows; that is the DataError below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:   # ValueError: a ragged row or a non-number
        raise DataError(f"cannot read stream file {path}: {exc}") from exc
    if len(data) == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] < 2:
        raise DataError(f"{path}: expected timestamp plus at least one channel")
    return RawStream(subject_id=subject_id, session_id=session_id, kind=kind,
                     timestamps_ms=data[:, 0], frames=data[:, 1:],
                     nominal_rate=nominal_rate).validate()


def _is_index(value) -> bool:
    # subject and session ids are stored as int32 in a WindowSet
    return type(value) is int and 0 <= value < 2 ** 31


def _is_finite(value) -> bool:
    return type(value) in (int, float) and float("-inf") < value < float("inf")


def _is_rate(value) -> bool:
    return _is_finite(value) and value > 0


def _is_text(value) -> bool:
    return type(value) is str


# what each manifest key, and each key of a recordings entry, must hold
_MANIFEST_RULES = {
    "mode": (_is_text, "a string"),
    "n_angles": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "emg_rate": (lambda v: _is_rate(v) and v > NYQUIST_RATE_HZ,
                 f"a finite number above {NYQUIST_RATE_HZ:g} Hz"),
    "angle_rate": (_is_rate, "a positive finite number"),
    "recordings": (lambda v: type(v) is list and len(v) > 0, "a non-empty list"),
}
# the manifest keys an archive's meta carries on, and that its readers use
_ARCHIVE_META_RULES = {key: _MANIFEST_RULES[key] for key in ("mode", "n_angles")}
_RECORDING_RULES = {
    "subject": (_is_index, "an integer in [0, 2**31)"),
    "session": (_is_index, "an integer in [0, 2**31)"),
    "emg": (_is_text, "a file name"),
    "angles": (_is_text, "a file name"),
}
# what each row of an archive's session table must hold
_SESSION_RULES = {
    "subject": (_is_index, "an integer in [0, 2**31)"),
    "session": (_is_index, "an integer in [0, 2**31)"),
    "t_start": (_is_finite, "a finite number"),
    "t_end": (_is_finite, "a finite number"),
}


def _check_keys(where: str, mapping, rules: dict) -> None:
    if not isinstance(mapping, dict):
        raise DataError(f"{where} is not a mapping")
    for key, (ok, what) in rules.items():
        if key not in mapping:
            raise DataError(f"{where} misses required key {key!r}")
        if not ok(mapping[key]):
            raise DataError(f"{where}: {key} must be {what}, got {mapping[key]!r}")


def read_manifest(path) -> dict:
    """Dataset manifest: mode, rates, recording file paths per (subject, session).

    A manifest that does not parse, or whose keys or recording entries are
    missing or of the wrong type, is a DataError.
    """
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    _check_keys(f"manifest {path}", manifest, _MANIFEST_RULES)
    for i, entry in enumerate(manifest["recordings"]):
        _check_keys(f"manifest {path} recording {i}", entry, _RECORDING_RULES)
    return manifest


def preprocess_session(emg: RawStream, angles: RawStream, stride: int):
    """align -> filter -> window for one session; returns (WindowSet, AlignedRecording)."""
    rec = filter_recording(align(emg, angles), emg.nominal_rate)
    ws = make_windows(rec, stride=stride, target_margin=EDGE_MARGIN_ROWS)
    log.info("session s%d r%d: %d aligned rows, %d windows",
             rec.subject_id, rec.session_id, len(rec), len(ws))
    return ws, rec


def session_table(recordings: list) -> list:
    """One row per recording: the session table the split protocols read."""
    return [{"subject": rec.subject_id, "session": rec.session_id,
             "rows": len(rec),
             "t_start": float(rec.timestamps_ms[0]),
             "t_end": float(rec.timestamps_ms[-1])}
            for rec in recordings]


def save_archive(path, window_set: WindowSet, meta: dict) -> None:
    """Persist aligned recordings plus the window index as one .npz file."""
    payload = {}
    for i, rec in enumerate(window_set.recordings):
        payload[f"rec{i}_ts"] = rec.timestamps_ms
        payload[f"rec{i}_emg"] = rec.emg
        payload[f"rec{i}_angles"] = rec.angles
    header = {"format": ARCHIVE_FORMAT, "sessions": session_table(window_set.recordings),
              "meta": meta}
    payload["__header__"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    payload["windows_rec_index"] = window_set.rec_index
    payload["windows_start_row"] = window_set.start_row
    buf = io.BytesIO()
    np.savez(buf, **payload)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_archive(path):
    """Load a sample archive; returns (WindowSet, meta dict).

    An unreadable container, a missing entry, a header that is not a JSON
    object, a header value of the wrong JSON type (TypeError), a meta whose
    ``mode`` or ``n_angles`` breaks the manifest's rules, a session row
    without integer ids or whose ``t_start``/``t_end`` are not its
    recording's first and last timestamps, a recording whose emg or angle
    rows disagree in number with its timestamps or that does not hold 8 emg
    channels and ``n_angles`` angle columns, or a window index that runs
    outside its recording is a DataError.
    """
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            if "__header__" not in data:
                raise DataError("not a myograsp archive")
            header = json.loads(bytes(data["__header__"]).decode("utf-8"))
            if not isinstance(header, dict):
                raise DataError("archive header is not a JSON object")
            if header.get("format") != ARCHIVE_FORMAT:
                raise DataError(f"unsupported archive format {header.get('format')!r}")
            _check_keys("archive meta", header["meta"], _ARCHIVE_META_RULES)
            n_angles = header["meta"]["n_angles"]
            recordings = []
            for i, sess in enumerate(header["sessions"]):
                _check_keys(f"archive session {i}", sess, _SESSION_RULES)
                rec = AlignedRecording(
                    subject_id=sess["subject"], session_id=sess["session"],
                    timestamps_ms=data[f"rec{i}_ts"], emg=data[f"rec{i}_emg"],
                    angles=data[f"rec{i}_angles"])
                # the split protocols carve held-out periods from these bounds
                if [sess["t_start"], sess["t_end"]] != [*rec.timestamps_ms[:1],
                                                        *rec.timestamps_ms[-1:]]:
                    raise DataError(f"session {i}: t_start and t_end are not its "
                                    "recording's first and last timestamps")
                if not len(rec.emg) == len(rec.angles) == len(rec):
                    raise DataError(f"recording {i} has {len(rec)} timestamps but "
                                    f"{len(rec.emg)} emg and {len(rec.angles)} angle rows")
                if (rec.emg.ndim != 2 or rec.emg.shape[1] != 8 or rec.angles.ndim != 2
                        or rec.angles.shape[1] != n_angles):
                    raise DataError(f"recording {i} holds {rec.emg.shape} emg and "
                                    f"{rec.angles.shape} angle values; windows need 8 "
                                    f"channels and the meta's {n_angles} angles")
                recordings.append(rec)
            ws = WindowSet(recordings, data["windows_rec_index"], data["windows_start_row"])
            meta = dict(header["meta"], sessions=header["sessions"])
    except (DataError, TypeError, *NPZ_READ_ERRORS) as exc:
        raise DataError(f"cannot read archive {path}: {exc}") from exc
    return ws, meta
