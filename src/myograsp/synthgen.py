"""Deterministic synthetic dataset generator.

Stands in for a private human-subject dataset: latent "muscle activation"
processes drive both the joint angles (through a fixed smooth nonlinear map,
published below) and 8 emg-like channels (through a subject-specific mixing
matrix plus carrier modulation and noise).  The construction gives the
pipeline something real to learn and a controllable inter-subject domain
gap:

* 7 latent activations (5 fingers, 2 wrist axes) are posture-like processes
  (random levels held for seconds with smooth ramps plus a small wobble),
  gated by a per-session movement script (distinct fingers, simultaneous
  movement, free movement, ...) with smooth transitions;
* angles respond to the activations with first-order lag (time constant
  ``ANGLE_RESPONSE_S``, the joints have inertia) followed by the fixed map
  offset + amplitude * tanh(C @ a_smoothed + d): a linear readout from the
  instantaneous emg envelope is decent but beatable, and good predictions
  need the activation history over roughly the response time;
* emg channel i = gain * (M_s @ a)_i * (1 + depth * carrier_i) + noise,
  where M_s = M_base + perturbation * P_s differs per subject.  The carrier
  lives at 25-45 Hz, far above the 10 Hz pipeline low-pass, so the filtered
  envelope is approximately the mixed activation;
* latent signals, movement scripts, carriers and timestamp jitter are keyed
  by (seed, session) while mixing perturbations are keyed by (seed, subject):
  with zero noise and zero perturbation, two subjects' recordings are
  bit-identical, and every stream is reproducible in isolation.

Timestamps carry +-1 ms of jitter to exercise the alignment stage.  At
generation time a linear ridge-free baseline (least squares from the
low-passed emg to the angles) is fitted on one minute of data and its NRMSE
on the following minute is recorded in the manifest; end-to-end experiments
use it as an achievability floor.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
from scipy.signal import lfilter

from . import datapipe
from .errors import ConfigError, DataError
from .metrics import angle_ranges, nrmse
from .numerics import derive_rng

log = logging.getLogger("myograsp.synthgen")

__all__ = [
    "SynthConfig",
    "generate",
    "generate_session",
    "write_dataset",
    "linear_baseline_nrmse",
    "N_LATENTS",
]

N_LATENTS = 7          # 5 fingers + 2 wrist axes
N_CHANNELS = 8
EMG_GAIN = 15.0
CARRIER_DEPTH = 0.8
CARRIER_BAND_HZ = (25.0, 45.0)
FINGER_HOLD_S = (1.5, 4.0)
WRIST_HOLD_S = (4.0, 10.0)
RAMP_SECONDS = 0.8
# first-order lag of the joint response to muscle activation
ANGLE_RESPONSE_S = 0.6
_RESPONSE_GRID_HZ = 200.0
# seed of the fixed angle-from-latent map; independent of the dataset seed
_MAP_SEED = 0x6A0
# most seconds of rows the linear baseline fits on, and evaluates on
BASELINE_FIT_SECONDS = 60.0


@dataclass
class SynthConfig:
    n_subjects: int = 5
    sessions_per_subject: int = 8
    session_seconds: float = 240.0
    mode: str = "immobile"            # immobile: 15 angles, mobile: 18
    emg_rate: float = 200.0
    angle_rate: float = 100.0
    noise_std: float = 8.0
    subject_mixing_perturbation: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("immobile", "mobile"):
            raise ConfigError(f"mode must be 'immobile' or 'mobile', got {self.mode!r}")
        if self.n_subjects < 1 or self.sessions_per_subject < 1:
            raise ConfigError("need at least one subject and session")
        for name, zero_ok in (("session_seconds", False), ("emg_rate", False),
                              ("angle_rate", False), ("noise_std", True),
                              ("subject_mixing_perturbation", True)):
            value = getattr(self, name)
            if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
                raise ConfigError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, "
                                  f"got {value}")
        if self.emg_rate <= datapipe.NYQUIST_RATE_HZ:   # preprocessing filters at this rate
            raise ConfigError(f"emg_rate must lie above {datapipe.NYQUIST_RATE_HZ:g} Hz, "
                              f"got {self.emg_rate}")

    @property
    def n_angles(self) -> int:
        return 15 if self.mode == "immobile" else 18


# ---------------------------------------------------------------------------
# fixed angle map
# ---------------------------------------------------------------------------

def angle_map(mode: str):
    """The fixed latent->angle map: y = offset + amplitude * tanh(C a + d).

    Finger angle k is driven mainly by finger latent k // 3 with small
    cross-terms; the three wrist angles of mobile mode hang off the two
    wrist latents.  Constants are drawn once from a pinned generator so the
    achievable regression floor is identical for every dataset seed.
    """
    n_angles = 15 if mode == "immobile" else 18
    rng = derive_rng(_MAP_SEED, mode)
    C = rng.uniform(-0.15, 0.15, size=(n_angles, N_LATENTS))
    offset = np.empty(n_angles)
    amplitude = np.empty(n_angles)
    for k in range(n_angles):
        if k < 15:
            main = k // 3
            offset[k], amplitude[k] = 45.0, 45.0
        else:
            main = 5 + (k - 15) % 2
            offset[k], amplitude[k] = 0.0, 30.0
        C[k, main] = rng.uniform(1.6, 2.2)
    d = rng.uniform(-0.9, -0.7, size=n_angles)
    return C, d, offset, amplitude


def latents_to_angles(latents: np.ndarray, mode: str) -> np.ndarray:
    C, d, offset, amplitude = angle_map(mode)
    return offset + amplitude * np.tanh(latents @ C.T + d)


# ---------------------------------------------------------------------------
# movement scripts and latent processes
# ---------------------------------------------------------------------------

def _session_script(mode: str):
    """Segments as (duration fraction, finger gates, sync flags, wrist gate)."""
    lo, hi = 0.08, 1.0
    segs = []
    if mode == "immobile":
        for f in range(5):
            gates = np.full(5, lo)
            gates[f] = hi
            segs.append((150.0 / 240.0 / 5.0, gates, False, 0.04))
        segs.append((60.0 / 240.0, np.full(5, hi), True, 0.04))
        segs.append((30.0 / 240.0, np.full(5, hi), False, 0.04))
    else:
        for f in range(5):
            gates = np.full(5, lo)
            gates[f] = hi
            segs.append((60.0 / 240.0 / 5.0, gates, False, 0.9))
        segs.append((30.0 / 240.0, np.full(5, hi), True, 0.9))      # simultaneous
        pinch = np.full(5, lo)
        pinch[[0, 1]] = hi
        segs.append((30.0 / 240.0, pinch, True, 0.9))               # pinch
        segs.append((30.0 / 240.0, np.full(5, hi), True, 0.9))      # open palm
        thumb = np.full(5, lo)
        thumb[0] = hi
        segs.append((30.0 / 240.0, thumb, False, 0.9))              # thumb
        segs.append((30.0 / 240.0, np.full(5, hi), False, 0.9))     # free
    return segs


class _FourierSignal:
    """Smooth band-limited unit-variance signal, evaluable at any time."""

    def __init__(self, rng: np.random.Generator, band_hz, k: int = 10):
        self.freqs = rng.uniform(band_hz[0], band_hz[1], size=k)
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
        g = rng.uniform(0.5, 1.0, size=k)
        self.amps = g / np.linalg.norm(g) * np.sqrt(2.0)

    def __call__(self, t_s: np.ndarray) -> np.ndarray:
        arg = 2.0 * np.pi * np.outer(t_s, self.freqs) + self.phases
        return np.sin(arg) @ self.amps


class _HoldSignal:
    """Posture-like process: random levels held for seconds, smooth ramps.

    Mirrors how movement sessions are scripted (bend, hold, release): the
    value sits on a level for ``hold_s`` seconds, then glides to the next
    level over ``ramp_s`` with a C1 smoothstep.  A small band-limited wobble
    keeps the trajectories alive between transitions.
    """

    def __init__(self, rng: np.random.Generator, duration_s: float,
                 hold_s=(1.5, 4.0), ramp_s: float = 0.35,
                 wobble_band=(0.2, 0.6), wobble: float = 0.15):
        n = int(duration_s / hold_s[0]) + 3
        self.bounds = np.concatenate([[0.0], np.cumsum(rng.uniform(*hold_s, size=n))])
        self.levels = rng.uniform(-1.8, 1.8, size=n + 2)
        self.ramp = ramp_s
        self.wobble = wobble
        self.carrier = _FourierSignal(rng, wobble_band)

    def __call__(self, t_s: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.bounds, t_s, side="right")
        s = np.clip((t_s - self.bounds[k - 1]) / self.ramp, 0.0, 1.0)
        s = s * s * (3.0 - 2.0 * s)
        value = self.levels[k - 1] + (self.levels[k] - self.levels[k - 1]) * s
        return value + self.wobble * self.carrier(t_s)


def _segment_weights(t_s: np.ndarray, bounds: np.ndarray, tau: float):
    """Smooth partition of unity over the script segments."""
    w = []
    for i in range(len(bounds) - 1):
        w.append(0.5 * (np.tanh((t_s - bounds[i]) / tau)
                        - np.tanh((t_s - bounds[i + 1]) / tau)))
    return np.stack(w, axis=1)


class _LatentProcess:
    """Latent activations for one session, shared by all subjects."""

    def __init__(self, cfg: SynthConfig, session: int):
        rng = derive_rng(cfg.seed, "latents", session)
        dur = cfg.session_seconds
        self.signals = [_HoldSignal(rng, dur, hold_s=FINGER_HOLD_S) for _ in range(5)]
        self.signals += [_HoldSignal(rng, dur, hold_s=WRIST_HOLD_S, wobble=0.08)
                         for _ in range(2)]
        self.shared = _HoldSignal(rng, dur, hold_s=FINGER_HOLD_S)
        segs = _session_script(cfg.mode)
        fractions = np.array([s[0] for s in segs])
        self.bounds = np.concatenate([[-np.inf],
                                      np.cumsum(fractions)[:-1] * cfg.session_seconds,
                                      [np.inf]])
        self.finger_gates = np.stack([s[1] for s in segs])      # (S, 5)
        self.sync = np.array([float(s[2]) for s in segs])       # (S,)
        self.wrist_gates = np.array([s[3] for s in segs])       # (S,)

    def __call__(self, t_s: np.ndarray) -> np.ndarray:
        w = _segment_weights(t_s, self.bounds, RAMP_SECONDS)     # (N, S)
        shared = self.shared(t_s)
        sync = w @ self.sync
        latents = np.empty((len(t_s), N_LATENTS))
        for j in range(5):
            gate = w @ self.finger_gates[:, j]
            raw = (1.0 - sync) * self.signals[j](t_s) + sync * shared
            latents[:, j] = gate / (1.0 + np.exp(-2.0 * raw))
        wrist_gate = w @ self.wrist_gates
        for j in range(5, 7):
            latents[:, j] = wrist_gate / (1.0 + np.exp(-2.0 * self.signals[j](t_s)))
        return latents


# ---------------------------------------------------------------------------
# session generation
# ---------------------------------------------------------------------------

def _jittered_clock(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    # base offset keeps jittered timestamps strictly positive
    n = int(round(rate * seconds))
    return np.arange(n) / rate * 1000.0 + 1.0 + rng.uniform(-1.0, 1.0, size=n)


def _base_mixing() -> np.ndarray:
    rng = derive_rng(_MAP_SEED, "mixing")
    return rng.uniform(0.25, 1.0, size=(N_CHANNELS, N_LATENTS))


def subject_mixing(cfg: SynthConfig, subject: int) -> np.ndarray:
    perturb = derive_rng(cfg.seed, "mixing-perturbation", subject).normal(
        0.0, 1.0, size=(N_CHANNELS, N_LATENTS))
    return _base_mixing() + cfg.subject_mixing_perturbation * perturb


def _lagged_latents(latent, ang_ts_ms: np.ndarray, seconds: float) -> np.ndarray:
    """Joint response: first-order lag of the activations, sampled at ang_ts.

    The lag filter runs on a dense uniform grid and the result is
    interpolated onto the jittered angle clock.
    """
    dt = 1.0 / _RESPONSE_GRID_HZ
    t_dense = np.arange(0.0, seconds + 2.0 * dt, dt)
    a = latent(t_dense)
    alpha = 1.0 - np.exp(-dt / ANGLE_RESPONSE_S)
    # y[k] = (1 - alpha) y[k-1] + alpha a[k], started at the initial level
    zi = (1.0 - alpha) * a[0][None, :]
    smoothed, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], a, axis=0, zi=zi)
    t_q = ang_ts_ms / 1000.0
    return np.column_stack([np.interp(t_q, t_dense, smoothed[:, j])
                            for j in range(a.shape[1])])


@dataclass(frozen=True)
class _SessionSignals:
    """The subject-independent part of one session, keyed by (seed, session).

    The arrays are read-only: ``generate`` hands the same ones to every
    subject of the session.
    """
    emg_ts: np.ndarray      # (N,) jittered emg clock, ms
    angle_ts: np.ndarray    # (M,) jittered angle clock, ms
    latents: np.ndarray     # (N, N_LATENTS) activations on the emg clock
    angles: np.ndarray      # (M, n_angles) angle frames


def _session_signals(cfg: SynthConfig, session: int) -> _SessionSignals:
    latent = _LatentProcess(cfg, session)
    emg_ts = _jittered_clock(derive_rng(cfg.seed, "jitter-emg", session),
                             cfg.emg_rate, cfg.session_seconds)
    ang_ts = _jittered_clock(derive_rng(cfg.seed, "jitter-angles", session),
                             cfg.angle_rate, cfg.session_seconds)
    a_ang = _lagged_latents(latent, ang_ts, cfg.session_seconds)
    signals = _SessionSignals(emg_ts=emg_ts, angle_ts=ang_ts, latents=latent(emg_ts / 1000.0),
                              angles=latents_to_angles(a_ang, cfg.mode))
    for array in (signals.emg_ts, signals.angle_ts, signals.latents, signals.angles):
        array.flags.writeable = False
    return signals


def _subject_session(cfg: SynthConfig, subject: int, session: int,
                     signals: _SessionSignals):
    """One subject's streams over a session's shared signals: the subject's
    mixing, the carrier (cheaper to redraw than to keep), noise and clip."""
    carrier_rng = derive_rng(cfg.seed, "carrier", session)
    freqs = carrier_rng.uniform(*CARRIER_BAND_HZ, size=N_CHANNELS)
    phases = carrier_rng.uniform(0.0, 2.0 * np.pi, size=N_CHANNELS)
    carrier = np.sin(2.0 * np.pi * np.outer(signals.emg_ts / 1000.0, freqs) + phases)

    base = signals.latents @ subject_mixing(cfg, subject).T
    emg = EMG_GAIN * base * (1.0 + CARRIER_DEPTH * carrier)
    if cfg.noise_std > 0:
        noise_rng = derive_rng(cfg.seed, "noise", subject, session)
        emg = emg + noise_rng.normal(0.0, cfg.noise_std, size=emg.shape)
    emg = np.clip(emg, -128.0, 128.0)

    emg_stream = datapipe.RawStream(
        subject_id=subject, session_id=session, kind="emg",
        timestamps_ms=signals.emg_ts, frames=emg, nominal_rate=cfg.emg_rate).validate()
    angle_stream = datapipe.RawStream(
        subject_id=subject, session_id=session, kind="angles",
        timestamps_ms=signals.angle_ts, frames=signals.angles,
        nominal_rate=cfg.angle_rate).validate()
    return emg_stream, angle_stream, signals.latents


def generate_session(cfg: SynthConfig, subject: int, session: int):
    """One (subject, session) pair of raw streams plus the latent record.

    Returns (emg RawStream, angles RawStream, latents on the emg clock).
    """
    return _subject_session(cfg, subject, session, _session_signals(cfg, session))


def generate(cfg: SynthConfig):
    """Yield (emg, angles, latents) for every (subject, session) pair, subject-major.

    Each session's subject-independent signals are computed once and kept
    until its last subject; the items equal those of ``generate_session``.
    """
    shared = [None] * cfg.sessions_per_subject
    for subject in range(cfg.n_subjects):
        for session in range(cfg.sessions_per_subject):
            signals = shared[session]
            if signals is None:
                signals = _session_signals(cfg, session)
            shared[session] = signals if subject < cfg.n_subjects - 1 else None
            yield _subject_session(cfg, subject, session, signals)


# ---------------------------------------------------------------------------
# learnability floor
# ---------------------------------------------------------------------------

def linear_baseline_nrmse(emg: datapipe.RawStream, angles: datapipe.RawStream) -> float:
    """Least-squares readout from the filtered emg to the angles.

    Fit and evaluation rows come from interleaved 2 s tiles (up to
    ``BASELINE_FIT_SECONDS`` worth each), so both pools see every movement
    phase of the session script.  The resulting NRMSE is recorded into the
    manifest as the floor an end-to-end model should approach.
    """
    rec = datapipe.align(emg, angles)
    rec = datapipe.filter_recording(rec, emg.nominal_rate)
    tile = int(2.0 * emg.nominal_rate)
    tiles = np.arange(len(rec)) // tile
    max_rows = int(BASELINE_FIT_SECONDS * emg.nominal_rate)
    fit_rows = np.flatnonzero(tiles % 2 == 0)[:max_rows]
    eval_rows = np.flatnonzero(tiles % 2 == 1)[:max_rows]
    X = np.column_stack([rec.emg, np.ones(len(rec))])
    coef, *_ = np.linalg.lstsq(X[fit_rows], rec.angles[fit_rows], rcond=None)
    pred = X[eval_rows] @ coef
    truth = rec.angles[eval_rows]
    ranges = angle_ranges(truth) if len(truth) else np.zeros(1)
    if np.any(ranges <= 0):
        raise DataError(f"{len(rec)} aligned rows are too few for the linear "
                        "baseline's evaluation tiles")
    return nrmse(pred, truth, ranges)


# ---------------------------------------------------------------------------
# dataset on disk
# ---------------------------------------------------------------------------

def write_dataset(cfg: SynthConfig, out_dir) -> dict:
    """Write all stream CSVs, latent CSVs and the manifest; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    recordings = []
    floor = None
    for emg, ang, latents in generate(cfg):
        subject, session = emg.subject_id, emg.session_id
        if floor is None:
            # session 0 of subject 0 comes first: a session too short for the
            # baseline fails before any file is written
            floor = linear_baseline_nrmse(emg, ang)
            log.info("linear baseline NRMSE floor: %.4f", floor)
        emg_name = f"s{subject}_r{session}_emg.csv"
        ang_name = f"s{subject}_r{session}_angles.csv"
        datapipe.write_stream_csv(os.path.join(out_dir, emg_name), emg)
        datapipe.write_stream_csv(os.path.join(out_dir, ang_name), ang)
        if subject == 0:
            header = "timestamp_ms," + ",".join(f"latent{i}" for i in range(N_LATENTS))
            datapipe.write_csv(os.path.join(out_dir, f"r{session}_latents.csv"), header,
                               np.column_stack([emg.timestamps_ms, latents]))
        recordings.append({"subject": subject, "session": session,
                           "emg": emg_name, "angles": ang_name})
        log.info("wrote s%d r%d (%.0f s)", subject, session, cfg.session_seconds)
    manifest = {
        "mode": cfg.mode,
        "n_angles": cfg.n_angles,
        "emg_rate": cfg.emg_rate,
        "angle_rate": cfg.angle_rate,
        "config": asdict(cfg),
        "linear_baseline_nrmse": floor,
        "recordings": recordings,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest
