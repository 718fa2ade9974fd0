"""Network assembly: stacked recurrent feature extractor plus heads.

The architecture follows a fixed template, its layer and input counts
constants: ``RECURRENT_LAYERS`` = 2 recurrent layers (vanilla, GRU or SRU
cells) over the armband's ``datapipe.EMG_CHANNELS`` = 8 channels, a
feature reduction set by the cell (global average pooling over time for
sru, the last timestep for gru and vanilla), a two-layer predictor head
(ReLU hidden, linear output over the joint angles) and, optionally, a
two-layer domain discriminator behind a gradient reversal layer: the
identity going forward, a negation going back, which makes the feature
extractor adversarial to the domain classifier.  Each network owns two
workspaces of grow-only ``cells.Buffers``: for training, one per layer for
the traced forward and the backward; for inference, one per layer for its
block output and the state it carries from call to call, and one scratch
shared by all layers.

The network computes in float32, the dtype of its parameters: the forward
and the backward follow the predictor's dtype, and incoming windows and
loss gradients (float64 from the data pipeline and the losses) are cast
where they enter, windows one layer call's steps at a time inside the cells.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import cells
from .datapipe import EMG_CHANNELS
from .errors import NPZ_READ_ERRORS, ConfigError, DataError, NumericError
from .numerics import init_params, relu

__all__ = [
    "NetworkConfig",
    "HeadParams",
    "Network",
    "NetworkTrace",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
    "RECURRENT_LAYERS",
]

CHECKPOINT_FORMAT = "myograsp-checkpoint/4"
RECURRENT_LAYERS = 2

CELL_TYPES = ("vanilla", "gru", "sru")


@dataclass
class NetworkConfig:
    cell_type: str = "gru"
    hidden_size: int = 256
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


def _head_forward(head: HeadParams, feat: np.ndarray, out: np.ndarray | None = None):
    """(relu(feat @ W1.T + b1), that @ W2.T + b2), each formed in place in
    its product, the second in ``out`` if given."""
    a1 = feat @ head.W1.T
    a1 += head.b1
    relu(a1, out=a1)
    out = np.matmul(a1, head.W2.T, out=out)
    out += head.b2
    return a1, out


def _block_forward(layer, seq: np.ndarray, state, traces: list | None,
                   buffers: cells.Buffers | None = None, scratch: cells.Buffers | None = None):
    """One layer over one block from its carried state; returns the block's
    outputs and the state it leaves, both views of the layer's ``buffers``
    (fresh arrays without them) until its next call.  The trace goes to
    ``traces`` if given, else it is dropped here."""
    out, trace = cells.cell_forward(layer, seq, state, buffers, scratch)
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
    # the workspaces, kept for the network's lifetime: state, not parameters
    # or settings, and not checkpointed.  Training: one cells.Buffers per
    # layer.  Inference: one per layer for its block output and carried
    # state, and one shared by all layers for what dies within a block call
    buffers: list = field(default_factory=list, repr=False, compare=False)
    stream_buffers: list = field(default_factory=list, repr=False, compare=False)
    stream_scratch: cells.Buffers = field(default_factory=cells.Buffers, repr=False,
                                          compare=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def init(cls, config: NetworkConfig, rng: np.random.Generator) -> "Network":
        """Draw all parameters in a fixed order so a seed pins the network.

        The discriminator is initialised last: ablating it does not disturb
        the draws of the shared feature extractor and predictor.
        """
        net = cls(config=config)
        in_dim = EMG_CHANNELS
        for _ in range(RECURRENT_LAYERS):
            if config.cell_type == "vanilla":
                net.layers.append(cells.init_vanilla(in_dim, config.hidden_size,
                                                     config.hidden_size, rng))
            elif config.cell_type == "gru":
                net.layers.append(cells.init_gru(in_dim, config.hidden_size, rng))
            else:
                net.layers.append(cells.init_sru(in_dim, config.hidden_size, rng))
            net.buffers.append(cells.Buffers())
            net.stream_buffers.append(cells.Buffers())
            in_dim = config.hidden_size
        net.predictor = init_head(config.hidden_size, config.predictor_hidden,
                                  config.output_angles, rng)
        if config.use_discriminator:
            net.discriminator = init_head(config.hidden_size, config.predictor_hidden,
                                          config.num_domains, rng)
        return net

    # -- parameter bookkeeping ---------------------------------------------

    def named_params(self):
        """Deterministically ordered (name, array) pairs over all parameters;
        a GRU or SRU layer's are views of its fused arrays."""
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

    def forward(self, windows: np.ndarray, keep_trace: bool = True,
                out: np.ndarray | None = None):
        """Map (B, T, EMG_CHANNELS) input windows to angle predictions.

        Returns (angles (B, output_angles), domain_logits (B, num_domains) or
        None, trace).  With ``keep_trace=False`` (inference) the trace and the
        domain logits are None: the discriminator serves only training, so its
        head is not run.  The layer stack then streams over the time steps,
        each layer carrying its state from call to call and the feature
        reduction folded into the loop, so no (T, B, H) buffer is built.  Each
        layer call takes ``cells.stream_step`` steps: one for a GRU stack, as
        its work is all per step; one block of ``cells.BLOCK`` steps, the
        steps of one input GEMM, for an SRU or vanilla stack, because an SGEMM
        row's bits can depend on the GEMM's row count.  The angles are
        bit-identical to the traced pass's, which is the same loop over one
        block of T steps.  The feature is the pool's running sum, divided in
        place, or the top layer's last output: at inference a view of its
        buffers, or for the GRU, whose state is feature-major, a copy in
        scratch that is idle after the last step (``cells.row_major``), so the
        heads see the traced pass's memory order.  Each head run forms its
        hidden activations and outputs in place in its matrix products, the
        angles in ``out`` if given, a (B, output_angles) array of the
        parameters' dtype (``training.predict`` passes a slice of its result).

        The traced pass takes its trace arrays from the network's training
        workspace, ``self.buffers``, and :meth:`backward` its gradient
        arrays, so a trace stays valid until the network's next traced
        forward, and the ``dx`` its backward leaves until the next
        backward.  Inference runs in a workspace of its own, so it
        changes no trace: every call of every layer takes its scratch from
        ``self.stream_scratch`` and writes its block output and the state
        it leaves to the layer's ``self.stream_buffers``, where the layer's
        next call reads that state.

        Windows beyond the parameters' dtype range (float32's 3.4e38) raise
        NumericError: cast, they would turn into infinities.
        """
        x = np.asarray(windows)
        if x.ndim != 3 or x.shape[1] == 0 or x.shape[2] != EMG_CHANNELS:
            raise ValueError(
                f"forward expects (batch, time, {EMG_CHANNELS}) windows, got {x.shape}")
        dtype = self.predictor.W1.dtype
        limit = np.finfo(dtype).max
        if x.size and (x.max() > limit or x.min() < -limit):
            raise NumericError(f"windows exceed the {dtype} range of the network")

        B, T, _ = x.shape
        pool = self.config.cell_type == "sru"
        if pool:
            total = np.zeros((B, self.config.hidden_size), dtype)   # the pool's running sum
        if keep_trace:
            step, traces, buffers, scratch = T, [], self.buffers, None
        else:
            step, traces, buffers, scratch = (cells.stream_step(self.layers[0]), None,
                                              self.stream_buffers, self.stream_scratch)
        states = [None] * len(self.layers)
        for lo in range(0, T, step):
            seq = x[:, lo:lo + step]
            for i, layer in enumerate(self.layers):
                seq, states[i] = _block_forward(layer, seq, states[i], traces, buffers[i],
                                                scratch)
            if pool:
                _pool_sum(total, seq)
        if pool:
            feat = np.divide(total, T, out=total)
        elif keep_trace:   # a view would keep the vanilla cell's whole output alive
            feat = seq[:, -1, :].copy()
        else:
            feat = cells.row_major(seq[:, -1, :], scratch)

        pred_a1, angles = _head_forward(self.predictor, feat, out)
        domain_logits = None
        disc_a1 = None
        if keep_trace and self.discriminator is not None:
            # the gradient reversal layer is the identity going forward
            disc_a1, domain_logits = _head_forward(self.discriminator, feat)

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
        Both gradients are cast to the parameters' dtype here.  Returns a
        dict mapping parameter names to gradient arrays.
        """
        feat = trace.features
        dtype = self.predictor.W1.dtype
        angle_grad = np.asarray(angle_grad, dtype=dtype)
        pred_grads, dfeat = self._head_backward(self.predictor, trace.pred_a1,
                                                feat, angle_grad)
        grads = {f"predictor.{n}": a for n, a in pred_grads.named()}

        if domain_grad is not None:
            if self.discriminator is None:
                raise ValueError("domain_grad given but network has no discriminator")
            disc_grads, dfeat_disc = self._head_backward(
                self.discriminator, trace.disc_a1, feat,
                np.asarray(domain_grad, dtype=dtype))
            grads.update({f"discriminator.{n}": a for n, a in disc_grads.named()})
            dfeat = dfeat - dfeat_disc   # the gradient reversal layer
        elif self.discriminator is not None:
            # keep the key set stable for the optimizer
            grads.update({f"discriminator.{n}": np.zeros_like(a)
                          for n, a in self.discriminator.named()})

        B, T = feat.shape[0], trace.seq_len
        H = self.config.hidden_size
        if self.config.cell_type == "sru":   # the pool's mean: one view, read only
            upstream = np.broadcast_to((dfeat / T)[:, None, :], (B, T, H))
        else:
            upstream = np.zeros((B, T, H), dtype)
            upstream[:, -1, :] = dfeat

        for i in range(len(self.layers) - 1, -1, -1):
            layer_grads, dx, _ = cells.cell_backward(   # nothing reads layer 0's dx
                trace.cell_traces[i], self.layers[i], upstream, self.buffers[i], i > 0)
            grads.update({f"layer{i}.{n}": a for n, a in layer_grads.named()})
            upstream = dx
        return grads


# ---------------------------------------------------------------------------
# checkpoint container (single .npz: config + meta as JSON, arrays by name)
# ---------------------------------------------------------------------------

def _param_shapes(config: NetworkConfig):
    """(name, shape) of every parameter of ``Network.init(config)``, in
    ``named_params`` order, yielded one at a time and allocating nothing, so
    a checkpoint's arrays are checked against its header config before a
    network of that config is built."""
    H, ph = config.hidden_size, config.predictor_hidden
    in_dim = EMG_CHANNELS
    for i in range(RECURRENT_LAYERS):
        w, u, b = (H, in_dim), (H, H), (1, H)
        if config.cell_type == "vanilla":
            layer = {"W_h": w, "U_h": u, "b_h": b, "W_y": u, "b_y": b}
        elif config.cell_type == "gru":
            layer = {f"{m}_{g}": s for g in "zrh" for m, s in (("W", w), ("U", u), ("b", b))}
        else:
            layer = {"W": w, "W_f": w, "b_f": b, "W_r": w, "b_r": b}
            if in_dim != H:
                layer["W_p"] = w
        yield from ((f"layer{i}.{n}", s) for n, s in layer.items())
        in_dim = H
    heads = [("predictor", config.output_angles)]
    if config.use_discriminator:
        heads.append(("discriminator", config.num_domains))
    for head, out in heads:
        yield from ((f"{head}.{n}", s) for n, s in
                    (("W1", (ph, H)), ("b1", (1, ph)), ("W2", (out, ph)), ("b2", (1, out))))


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
    with open(path, "wb") as fh:   # a file object: np.savez would append .npz to a path
        np.savez(fh, **payload)


def load_checkpoint(path):
    """Load a checkpoint; returns (Network, meta dict).

    An unreadable container, a header that is not a JSON object, a header
    config that does not match ``NetworkConfig``'s fields and their types, or
    a missing parameter or one that is not a float32 array of the shape the
    config implies is a DataError, found before anything of the config's
    size is allocated; a readable file of another format is a ConfigError,
    and no converter reads one (``/3`` headers still held the layer and
    channel counts, ``/2`` and older stored float64 parameters).
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
            stored = {}
            for name, shape in _param_shapes(cfg):
                if name not in data:
                    raise DataError(f"{path}: checkpoint has no parameter {name}")
                arr = stored[name] = data[name]
                if arr.dtype != np.float32 or arr.shape != shape:
                    raise DataError(f"{path}: parameter {name} is {arr.dtype} {arr.shape}, "
                                    f"its config needs float32 {shape}")
            rng = np.random.default_rng(0)   # placeholder draws, overwritten below
            net = Network.init(cfg, rng)
            net.set_params(stored)
            meta = header["meta"]
    except NPZ_READ_ERRORS as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    return net, meta
