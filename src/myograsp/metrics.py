"""RMSE and range-normalised RMSE for joint-angle regression.

RMSE averages squared errors over every (sample, angle) entry.  NRMSE first
divides predictions and targets per angle by that angle's range of true
values over the evaluation set, which makes errors comparable across joints
with very different movement extents.  An error whose squares overflow
float64 scores inf, without a warning; callers reject non-finite scores.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["rmse", "nrmse", "angle_ranges"]


def _pair(predictions, targets):
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {t.shape}")
    if p.size == 0:
        raise ValueError("empty input")
    return p, t


def rmse(predictions, targets) -> float:
    """Root mean squared error over all entries."""
    p, t = _pair(predictions, targets)
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean((p - t) ** 2)))


def nrmse(predictions, targets, ranges) -> float:
    """RMSE after dividing each angle column by its range of true values."""
    p, t = _pair(predictions, targets)
    r = np.asarray(ranges, dtype=np.float64)
    if np.any(r <= 0):
        raise ValueError("angle ranges must be strictly positive")
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean(((p - t) / r) ** 2)))


def angle_ranges(targets, clamp_zero: bool = False) -> np.ndarray:
    """Per-angle (max - min) of the true values over the evaluation set.

    ``clamp_zero`` replaces degenerate zero ranges by 1 (with a warning)
    instead of letting nrmse fail; used for per-epoch validation where a
    constant angle can occur on small splits.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    r = t.max(axis=0) - t.min(axis=0)
    if clamp_zero and np.any(r == 0):
        warnings.warn("zero-range angle encountered; range clamped to 1")
        r = np.where(r == 0, 1.0, r)
    return r
