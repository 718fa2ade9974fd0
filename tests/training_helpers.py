"""Test-only training helpers: an in-memory batch source and a per-vector loss.

``ArraySource`` stands in for ``datapipe.WindowSource`` when a test builds
its windows as arrays; ``cross_entropy_loss`` is the one-vector softmax
cross-entropy that ``training.cross_entropy_batch`` is checked against;
``UNRUNNABLE`` lists settings that ``TrainConfig`` and the run config
built on it must both reject; ``RAW_TARGETS`` are target statistics that
leave 15 angles as they are, bit for bit.
"""

import numpy as np

from myograsp.training import TargetStats

RAW_TARGETS = TargetStats(mean=np.zeros(15), std=np.ones(15))


class ArraySource:
    """In-memory batch source over (windows, targets[, domains]) arrays."""

    def __init__(self, x: np.ndarray, y: np.ndarray, domains=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.domains = None if domains is None else np.asarray(domains, dtype=np.int64)
        if len(self.x) != len(self.y):
            raise ValueError("windows and targets disagree in length")

    def __len__(self):
        return len(self.x)

    def batch(self, idx: np.ndarray):
        d = None if self.domains is None else self.domains[idx]
        return self.x[idx], self.y[idx], d


def cross_entropy_loss(logits: np.ndarray, label: int):
    """Softmax cross-entropy for one logits vector; returns (scalar, gradient)."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    label = int(label)
    if not 0 <= label < logits.size:
        raise ValueError(f"label {label} out of range for {logits.size} domains")
    shifted = logits - logits.max()
    logp = shifted - np.log(np.exp(shifted).sum())
    grad = np.exp(logp)
    grad[label] -= 1.0
    return float(-logp[label]), grad


# (TrainConfig field, a value the training loop cannot run with)
UNRUNNABLE = [("learning_rate", 0.0), ("learning_rate", float("nan")),
              ("learning_rate", float("inf")), ("batch_size", 0), ("max_epochs", 0),
              ("patience", 0), ("seed", -1)]
