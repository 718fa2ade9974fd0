"""Central finite-difference gradient checking used across the test suite.

Relative error uses denominator max(|analytic|, |numeric|, 1e-8); the
default step is 1e-5 and the default tolerance 1e-4.  A step of 1e-5 is
below float32's resolution, so the checks run on float64 parameters:
:func:`to_float64` converts the float32 ones the package builds, and the
kernels then compute in float64 (they follow their parameters' dtype).
"""

from dataclasses import fields

import numpy as np

from myograsp.network import Network

STEP = 1e-5
TOL = 1e-4
FLOOR = 1e-8


def to_float64(obj):
    """Replace every stored array of cell params, a head or a ``Network`` by
    a float64 copy of itself (the fused arrays of a GRU or SRU layer, whose
    per-matrix views then read float64 too); returns ``obj``."""
    if isinstance(obj, Network):
        for part in [*obj.layers, obj.predictor, obj.discriminator]:
            if part is not None:
                to_float64(part)
        return obj
    for f in fields(obj):
        setattr(obj, f.name, getattr(obj, f.name).astype(np.float64))
    return obj


def rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), FLOOR)


def max_param_rel_err(arrays, grads, loss_fn, step=STEP) -> float:
    """Worst relative error over every entry of every (name, array) pair.

    ``grads`` maps names to analytic gradient arrays; ``loss_fn`` re-evaluates
    the scalar loss with the (mutated-in-place) parameters.
    """
    worst = 0.0
    for name, arr in arrays:
        g = grads[name]
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            lp = loss_fn()
            arr[idx] = orig - step
            lm = loss_fn()
            arr[idx] = orig
            numeric = (lp - lm) / (2.0 * step)
            worst = max(worst, rel_err(float(g[idx]), numeric))
    return worst


def max_array_rel_err(target: np.ndarray, analytic: np.ndarray, loss_fn,
                      step=STEP) -> float:
    """Like max_param_rel_err, for a single array perturbed in place."""
    worst = 0.0
    flat = target.reshape(-1)
    gflat = analytic.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = loss_fn()
        flat[i] = orig - step
        lm = loss_fn()
        flat[i] = orig
        numeric = (lp - lm) / (2.0 * step)
        worst = max(worst, rel_err(float(gflat[i]), numeric))
    return worst
