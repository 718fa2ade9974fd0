"""Network assembly: stacked recurrent feature extractor plus heads.

The architecture follows a fixed template: two recurrent layers (vanilla,
GRU or SRU cells), a feature reduction set by the cell (global average
pooling over time for sru, the last timestep for gru and vanilla), a
two-layer predictor head (ReLU hidden, linear output over the joint
angles) and, optionally, a two-layer domain discriminator behind a
gradient reversal layer: the identity going forward, a negation going
back, which makes the feature extractor adversarial to the domain
classifier.  Each network owns its training workspace, one grow-only
``cells.Buffers`` per layer for the traced forward and the backward.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import cells
from .errors import NPZ_READ_ERRORS, ConfigError, DataError
from .numerics import init_params, relu

__all__ = [
    "NetworkConfig",
    "HeadParams",
    "Network",
    "NetworkTrace",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
]

CHECKPOINT_FORMAT = "myograsp-checkpoint/2"

CELL_TYPES = ("vanilla", "gru", "sru")


@dataclass
class NetworkConfig:
    cell_type: str = "gru"
    input_channels: int = 8
    hidden_size: int = 256
    num_recurrent_layers: int = 2
    predictor_hidden: int = 256
    output_angles: int = 15
    use_discriminator: bool = False
    num_domains: int = 0

    def __post_init__(self):
        if self.cell_type not in CELL_TYPES:
            raise ConfigError(f"cell_type must be one of {CELL_TYPES}, got {self.cell_type!r}")
        if self.output_angles not in (15, 18):
            raise ConfigError(f"output_angles must be 15 or 18, got {self.output_angles}")
        if self.use_discriminator and self.num_domains < 2:
            raise ConfigError("use_discriminator requires num_domains >= 2")
        if self.num_recurrent_layers < 1:
            raise ConfigError("need at least one recurrent layer")


@dataclass
class HeadParams(cells._ArrayFields):
    W1: np.ndarray  # (hidden, feat)
    b1: np.ndarray  # (1, hidden)
    W2: np.ndarray  # (out, hidden)
    b2: np.ndarray  # (1, out)


def init_head(feat_dim: int, hidden: int, out_dim: int, rng) -> HeadParams:
    return HeadParams(
        W1=init_params(hidden, feat_dim, "uniform-scaled", rng),
        b1=init_params(1, hidden, "zeros", rng),
        W2=init_params(out_dim, hidden, "uniform-scaled", rng),
        b2=init_params(1, out_dim, "zeros", rng),
    )


def _pool_sum(total: np.ndarray, seq: np.ndarray) -> None:
    """Add the steps of ``seq`` (B, T, H) to ``total`` one at a time: one
    summation order whether a sequence arrives whole or block by block
    (``mean(axis=1)`` sums pairwise in degenerate shapes)."""
    for t in range(seq.shape[1]):
        total += seq[:, t]


def _block_forward(layer, seq: np.ndarray, state, traces: list | None,
                   buffers: cells.Buffers | None = None):
    """One layer over one block from its carried state; returns the block's
    outputs and the state it leaves.  The trace goes to ``traces`` if given,
    else it is dropped here."""
    out, trace = cells.cell_forward(layer, seq, state, buffers)
    if traces is not None:
        traces.append(trace)
    return out, cells.final_state(trace)


@dataclass
class NetworkTrace:
    cell_traces: list
    features: np.ndarray          # (B, H)
    seq_len: int
    pred_a1: np.ndarray           # (B, ph) post-ReLU predictor hidden
    disc_a1: np.ndarray | None    # (B, ph) post-ReLU discriminator hidden


@dataclass
class Network:
    config: NetworkConfig
    layers: list = field(default_factory=list)          # cell params per layer
    predictor: HeadParams | None = None
    discriminator: HeadParams | None = None
    # the training workspace, one cells.Buffers per layer for the network's
    # lifetime; state, not a parameter or a setting, and not checkpointed
    buffers: list = field(default_factory=list, repr=False, compare=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, config: NetworkConfig, rng: np.random.Generator) -> "Network":
        """Draw all parameters in a fixed order so a seed pins the network.

        The discriminator is initialised last: ablating it does not disturb
        the draws of the shared feature extractor and predictor.
        """
        net = cls(config=config)
        in_dim = config.input_channels
        for _ in range(config.num_recurrent_layers):
            if config.cell_type == "vanilla":
                net.layers.append(cells.init_vanilla(in_dim, config.hidden_size,
                                                     config.hidden_size, rng))
            elif config.cell_type == "gru":
                net.layers.append(cells.init_gru(in_dim, config.hidden_size, rng))
            else:
                net.layers.append(cells.init_sru(in_dim, config.hidden_size, rng))
            net.buffers.append(cells.Buffers())
            in_dim = config.hidden_size
        net.predictor = init_head(config.hidden_size, config.predictor_hidden,
                                  config.output_angles, rng)
        if config.use_discriminator:
            net.discriminator = init_head(config.hidden_size, config.predictor_hidden,
                                          config.num_domains, rng)
        return net

    # -- parameter bookkeeping ---------------------------------------------

    def named_params(self):
        """Deterministically ordered (name, array) pairs over all parameters."""
        out = []
        for i, layer in enumerate(self.layers):
            out.extend((f"layer{i}.{n}", a) for n, a in layer.named())
        out.extend((f"predictor.{n}", a) for n, a in self.predictor.named())
        if self.discriminator is not None:
            out.extend((f"discriminator.{n}", a) for n, a in self.discriminator.named())
        return out

    def set_params(self, values: dict):
        for name, arr in self.named_params():
            src = values[name]
            if src.shape != arr.shape:
                raise ValueError(f"parameter {name}: shape {src.shape} != {arr.shape}")
            arr[...] = src

    def copy_params(self) -> dict:
        return {name: arr.copy() for name, arr in self.named_params()}

    # -- forward / backward --------------------------------------------------

    def forward(self, windows: np.ndarray, keep_trace: bool = True):
        """Map (B, T, C) input windows to angle predictions.

        Returns (angles (B, output_angles), domain_logits (B, num_domains)
        or None, trace).  With ``keep_trace=False`` (inference) the trace is
        None and the layer stack runs over one block of ``cells.BLOCK``
        steps at a time, each layer carrying its state from block to block
        and the feature reduction folded into the loop, so no (T, B, H)
        buffer is built; the outputs are bit-identical to the traced pass,
        which is the same loop over one block of T steps.

        The traced pass takes its trace arrays from the network's own
        workspace, ``self.buffers``, and :meth:`backward` its gradient
        arrays, so a trace stays valid until the network's next traced
        forward, and the ``dx`` its backward leaves until the next
        backward.  Inference does not touch the workspace.
        """
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] == 0 or x.shape[2] != self.config.input_channels:
            raise ValueError(
                f"forward expects (batch, time, {self.config.input_channels}) windows, "
                f"got {x.shape}")

        B, T, _ = x.shape
        pool = self.config.cell_type == "sru"
        total = np.zeros((B, self.config.hidden_size))   # the pool's running sum
        traces = [] if keep_trace else None
        states = [None] * len(self.layers)
        step = T if keep_trace else cells.BLOCK
        for lo in range(0, T, step):
            seq = x[:, lo:lo + step]
            for i, layer in enumerate(self.layers):
                seq, states[i] = _block_forward(layer, seq, states[i], traces,
                                                self.buffers[i] if keep_trace else None)
            if pool:
                _pool_sum(total, seq)
        feat = total / T if pool else seq[:, -1, :].copy()

        p = self.predictor
        pred_a1 = relu(feat @ p.W1.T + p.b1)
        angles = pred_a1 @ p.W2.T + p.b2

        domain_logits = None
        disc_a1 = None
        if self.discriminator is not None:
            # the gradient reversal layer is the identity going forward
            d = self.discriminator
            disc_a1 = relu(feat @ d.W1.T + d.b1)
            domain_logits = disc_a1 @ d.W2.T + d.b2

        trace = (NetworkTrace(cell_traces=traces, features=feat, seq_len=T,
                              pred_a1=pred_a1, disc_a1=disc_a1) if keep_trace else None)
        return angles, domain_logits, trace

    def _head_backward(self, head: HeadParams, a1: np.ndarray, feat: np.ndarray,
                       dout: np.ndarray):
        dW2 = dout.T @ a1
        db2 = dout.sum(axis=0, keepdims=True)
        da1 = dout @ head.W2
        da1 = da1 * (a1 > 0)
        dW1 = da1.T @ feat
        db1 = da1.sum(axis=0, keepdims=True)
        dfeat = da1 @ head.W1
        return HeadParams(W1=dW1, b1=db1, W2=dW2, b2=db2), dfeat

    def backward(self, trace: NetworkTrace, angle_grad: np.ndarray,
                 domain_grad: np.ndarray | None = None) -> dict:
        """Backpropagate head gradients through the whole network.

        ``angle_grad`` is dLoss/dangles; ``domain_grad`` (if given) is
        dLoss/dlogits and flows through the gradient reversal layer, so its
        contribution to the feature extractor arrives negated.
        Passing ``domain_grad=None`` eliminates the discriminator path.
        Returns a dict mapping parameter names to gradient arrays.
        """
        feat = trace.features
        angle_grad = np.asarray(angle_grad, dtype=np.float64)
        pred_grads, dfeat = self._head_backward(self.predictor, trace.pred_a1,
                                                feat, angle_grad)
        grads = {f"predictor.{n}": a for n, a in pred_grads.named()}

        if domain_grad is not None:
            if self.discriminator is None:
                raise ValueError("domain_grad given but network has no discriminator")
            disc_grads, dfeat_disc = self._head_backward(
                self.discriminator, trace.disc_a1, feat,
                np.asarray(domain_grad, dtype=np.float64))
            grads.update({f"discriminator.{n}": a for n, a in disc_grads.named()})
            dfeat = dfeat - dfeat_disc   # the gradient reversal layer
        elif self.discriminator is not None:
            # keep the key set stable for the optimizer
            grads.update({f"discriminator.{n}": np.zeros_like(a)
                          for n, a in self.discriminator.named()})

        B, T = feat.shape[0], trace.seq_len
        H = self.config.hidden_size
        dseq = np.zeros((B, T, H))
        if self.config.cell_type == "sru":
            dseq += (dfeat / T)[:, None, :]
        else:
            dseq[:, -1, :] = dfeat

        upstream = dseq
        for i in range(len(self.layers) - 1, -1, -1):
            layer_grads, dx, _ = cells.cell_backward(
                trace.cell_traces[i], self.layers[i], upstream, self.buffers[i])
            grads.update({f"layer{i}.{n}": a for n, a in layer_grads.named()})
            upstream = dx
        return grads


# ---------------------------------------------------------------------------
# checkpoint container (single .npz: config + meta as JSON, arrays by name)
# ---------------------------------------------------------------------------

def save_checkpoint(path, net: Network, meta: dict | None = None) -> None:
    """Write config, metadata and all matrices; round-trips bit-identically."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(net.config),
        "meta": meta or {},
    }
    payload = {"__header__": np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8)}
    for name, arr in net.named_params():
        payload[name] = arr
    buf = io.BytesIO()
    np.savez(buf, **payload)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path):
    """Load a checkpoint; returns (Network, meta dict).

    An unreadable container, a header that is not a JSON object, a header
    config that does not match ``NetworkConfig``'s fields and their types, or
    a missing or misshapen parameter is a DataError; a readable file of
    another format is a ConfigError.
    """
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            if "__header__" not in data:
                raise ConfigError(f"{path}: not a myograsp checkpoint")
            header = json.loads(bytes(data["__header__"]).decode("utf-8"))
            if not isinstance(header, dict):
                raise DataError(f"{path}: checkpoint header is not a JSON object")
            if header.get("format") != CHECKPOINT_FORMAT:
                raise ConfigError(f"{path}: unsupported checkpoint format "
                                  f"{header.get('format')!r}")
            config = header["config"]
            if not isinstance(config, dict):
                raise DataError(f"{path}: checkpoint config is not a JSON object")
            for f in fields(NetworkConfig):   # each default has its field's type
                if f.name in config and type(config[f.name]) is not type(f.default):
                    raise DataError(f"{path}: checkpoint config {f.name} must be a "
                                    f"{type(f.default).__name__}, got {config[f.name]!r}")
            try:
                cfg = NetworkConfig(**config)
            except TypeError as exc:   # unknown config keys
                raise DataError(f"{path}: bad checkpoint config: {exc}") from exc
            rng = np.random.default_rng(0)   # placeholder draws, overwritten below
            net = Network.init(cfg, rng)
            net.set_params({name: data[name] for name, _ in net.named_params()})
            meta = header["meta"]
    except NPZ_READ_ERRORS as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    return net, meta
