"""Activations, parameter initialisation and seeded RNG.

Parameters are plain 2-d ``numpy.ndarray`` objects in C (row-major) order
with dtype float32, the one compute dtype of the network: every kernel
downstream follows its parameters' dtype, so the same code also runs on
float64 parameters (the tests' gradient checks do).  Biases are kept as
1 x n row vectors so they broadcast over batches.  The activations keep
their input's dtype and can work in place; the sigmoid, which every gate
of every cell runs through, takes its value from one ``tanh``, which
cannot overflow.  Everything downstream (cells, network, training) builds
on these few functions, and every random draw in the package flows
through :func:`make_rng` / :func:`derive_rng` so that a single 64-bit
seed pins the whole pipeline.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "sigmoid",
    "relu",
    "init_params",
    "make_rng",
    "derive_rng",
]


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function ``1 / (1 + exp(-x))``, computed in place
    as ``0.5 * tanh(0.5 * x) + 0.5``: four passes (multiply, tanh, multiply,
    add), none of which overflows.

    Without ``out`` the result goes to a fresh copy of ``x`` in its own
    floating dtype (float64 for other input), and ``x`` is left unchanged;
    with ``out`` it is written there (``out`` may be ``x`` itself, or any
    view of matching shape).  The result saturates to exactly 0 or 1 where
    tanh rounds to -1 or 1, beyond about |x| = 18 in float32 (37 in
    float64).
    """
    if out is None:
        x = np.asarray(x)
        out = np.array(x, dtype=np.result_type(x.dtype, np.float32))
        x = out
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(x, 0)`` in ``x``'s floating dtype (float64 for other input),
    written to ``out`` if given (``out`` may be ``x`` itself)."""
    x = np.asarray(x)
    return np.maximum(x, 0.0, out=out, dtype=np.result_type(x.dtype, np.float32))


def init_params(rows: int, cols: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Create a rows x cols float32 parameter matrix.

    ``uniform-scaled`` draws from U(-1/sqrt(fan_in), +1/sqrt(fan_in)) with
    fan_in = cols, in float64 and then rounded; ``zeros`` returns an
    all-zero matrix (used for biases).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"init_params needs rows, cols >= 1, got {rows}x{cols}")
    if scheme == "zeros":
        return np.zeros((rows, cols), dtype=np.float32)
    if scheme == "uniform-scaled":
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)
    raise ValueError(f"unknown init scheme {scheme!r}")


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seeds give identical draw sequences."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFFFFFFFFFF
    # stable across runs and platforms, unlike hash()
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, *keys) -> np.random.Generator:
    """Independent substream for (seed, *keys); keys may be ints or strings.

    Used to give every subject/session/purpose its own stream so that
    parallel generation order cannot change the output.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in keys]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
