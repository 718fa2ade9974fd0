"""Losses, Adam optimizer, early stopping and the training loop.

Training minimises MSE on the predicted angles; when the network carries
a domain discriminator (adversarial domain adaptation) the softmax
cross-entropy of that discriminator is added, unweighted, and its gradient
reaches the feature extractor through the gradient reversal layer.
Validation NRMSE drives early stopping: training halts after ``patience``
epochs without strict improvement (a patience of ``max_epochs`` or more
never stops early), and the parameters from the best validation epoch are
returned.

Angle targets are standardised per angle during training by
``target_stats``: raw targets sit at tens of degrees, and without
rescaling the squared-error loss dwarfs the discriminator cross-entropy,
leaving the adversarial term inert.  The network then predicts in
standardised units; validation metrics and downstream evaluation invert
the transform, so every reported RMSE/NRMSE stays in degrees.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .metrics import angle_ranges, nrmse, rmse
from .network import Network
from .numerics import make_rng

log = logging.getLogger("myograsp.training")

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainReport",
    "EpochStats",
    "TargetStats",
    "mse_loss",
    "cross_entropy_batch",
    "adam_step",
    "EarlyStopper",
    "train",
    "predict",
    "predict_source",
    "PREDICT_CHUNK",
]

# windows per untraced forward of ``predict``, and per gather of ``predict_source``
PREDICT_CHUNK = 256


@dataclass
class TargetStats:
    """Per-angle mean/std of the training targets; predictions invert it."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, targets: np.ndarray) -> "TargetStats":
        t = np.asarray(targets, dtype=np.float64)
        std = t.std(axis=0)
        return cls(mean=t.mean(axis=0), std=np.where(std == 0, 1.0, std))

    def normalize(self, y: np.ndarray) -> np.ndarray:
        return (y - self.mean) / self.std

    def denormalize(self, y: np.ndarray) -> np.ndarray:
        return y * self.std + self.mean


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    max_epochs: int = 30
    patience: int = 8
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        # the one check of these settings: experiment.TrainRunConfig runs it
        # by building its TrainConfig, and the CLI maps the error to exit 2
        checks = [
            ("learning_rate", math.isfinite(self.learning_rate) and self.learning_rate > 0,
             "finite and > 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("max_epochs", self.max_epochs >= 1, ">= 1"),
            ("patience", self.patience >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
        ]
        for name, ok, need in checks:
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all entries; returns (scalar, gradient).

    Gradient is 2*(pred - target)/n with n the total entry count, i.e. the
    exact derivative of the returned mean.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff ** 2))
    grad = 2.0 * diff / diff.size
    return loss, grad


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over a batch; gradient already carries 1/B."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    B, D = logits.shape
    if labels.shape != (B,):
        raise ValueError(f"labels shape {labels.shape} != ({B},)")
    if labels.min() < 0 or labels.max() >= D:
        raise ValueError(f"domain label out of range [0, {D})")
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(B), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(B), labels] -= 1.0
    return loss, grad / B


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update, in place on the parameter arrays.

    ``params`` is an iterable of (name, array) pairs; ``grads`` maps the same
    names to gradient arrays.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params:
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != param {p.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------

class EarlyStopper:
    """Stop after ``patience`` epochs without strict improvement.

    Ties do not reset patience; any decrease counts as improvement.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record this epoch's validation value; returns True when to stop."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_rmse: float
    val_nrmse: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    stopping_epoch: int = 0
    best_epoch: int = 0
    best_val_nrmse: float = np.inf

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,train_loss,val_rmse,val_nrmse,seconds\n")
            for e in self.epochs:
                fh.write(f"{e.epoch},{e.train_loss:.10g},{e.val_rmse:.10g},"
                         f"{e.val_nrmse:.10g},{e.seconds:.3f}\n")


def predict(net: Network, x: np.ndarray, chunk: int = PREDICT_CHUNK) -> np.ndarray:
    """Batched inference over (N, T, C) windows; returns (N, angles).

    Runs the untraced forward, which streams each chunk through the layer
    stack in the network's inference workspace, one step per layer call
    for the GRU and one block of ``cells.BLOCK`` steps for the SRU and the
    vanilla cell, so peak memory is that workspace, sized by one call of
    one chunk plus each layer's carried state, whatever the window length
    and chunk count.  Each chunk's angles go straight into the result, so
    no second copy of the predictions is built, and no windows give a
    (0, angles) result.
    """
    out = np.empty((len(x), net.config.output_angles), net.predictor.W1.dtype)
    for lo in range(0, len(x), chunk):
        net.forward(x[lo:lo + chunk], keep_trace=False, out=out[lo:lo + chunk])
    return out


def predict_source(net: Network, source, target_stats: TargetStats):
    """(predictions, targets) in angle units over every window of a source.

    The one way a split is scored: each ``PREDICT_CHUNK`` of windows is
    gathered, normalised and predicted before the next, so the split is
    never held whole, and the predictions equal ``predict`` over the whole
    normalised split bit for bit.  An empty source gathers one empty chunk,
    whose targets give the empty result its width.
    """
    n = len(source)
    preds, targets = [], []
    for lo in range(0, max(n, 1), PREDICT_CHUNK):
        x, y, _ = source.batch(np.arange(lo, min(lo + PREDICT_CHUNK, n)))
        preds.append(target_stats.denormalize(predict(net, x)))
        targets.append(y)
        del x   # else it lives on while the next chunk is gathered
    return np.concatenate(preds), np.concatenate(targets)


def _validation_metrics(net: Network, source, target_stats) -> tuple[float, float]:
    preds, ys = predict_source(net, source, target_stats)
    ranges = angle_ranges(ys, clamp_zero=True)
    return rmse(preds, ys), nrmse(preds, ys, ranges)


def train(net: Network, train_source, val_source, config: TrainConfig,
          target_stats: TargetStats):
    """Mini-batch training with seeded shuffling and early stopping.

    Returns (net, TrainReport) with the network holding the parameters of
    the best validation epoch.  When the network carries a discriminator,
    every training batch must provide domain labels; total loss is mse +
    cross_entropy.  The regression loss runs on targets standardised by
    ``target_stats`` while the reported validation metrics stay in raw
    angle units.  A non-finite loss or gradient raises NumericError before
    the step's update.

    Every step runs in the network's own workspace (``net.buffers``),
    which outlives the call, so only a network's first step at its largest
    batch maps fresh pages; at paper scale the GRU's holds 136 MB (float32)
    until the network is freed.
    """
    if len(train_source) == 0:
        raise ValueError("empty training set")

    shuffle_rng = make_rng(config.seed)
    state = AdamState()
    params = net.named_params()
    report = TrainReport()
    stopper = EarlyStopper(config.patience)
    best_params = net.copy_params()

    n = len(train_source)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            x, y, domains = train_source.batch(idx)
            angles, logits, trace = net.forward(x)
            loss, dangles = mse_loss(angles, target_stats.normalize(y))
            ddomains = None
            if net.discriminator is not None:
                if domains is None:
                    raise ValueError("ADA training needs a domain label on every sample")
                ce, dlogits = cross_entropy_batch(logits, domains)
                loss = loss + ce
                ddomains = dlogits
            batch = lo // config.batch_size
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}, batch {batch}")
            grads = net.backward(trace, dangles, ddomains)
            bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
            if bad:
                raise NumericError(f"non-finite gradient of {', '.join(bad)} "
                                   f"at epoch {epoch}, batch {batch}")
            adam_step(params, grads, state, config.learning_rate)
            total += loss * len(idx)

        val_rmse, val_nrmse = _validation_metrics(net, val_source, target_stats)
        seconds = time.perf_counter() - t0
        report.epochs.append(EpochStats(epoch, total / n, val_rmse, val_nrmse, seconds))
        log.info("epoch %d: train_loss=%.5f val_rmse=%.4f val_nrmse=%.4f (%.1fs)",
                 epoch, total / n, val_rmse, val_nrmse, seconds)

        stop = stopper.update(epoch, val_nrmse)
        if stopper.best_epoch == epoch:
            best_params = net.copy_params()
        report.stopping_epoch = epoch
        if stop:
            break

    report.best_epoch = stopper.best_epoch
    report.best_val_nrmse = stopper.best
    net.set_params(best_params)
    return net, report
